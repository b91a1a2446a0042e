"""Synthetic trace generation calibrated to a :class:`CityProfile`.

The generator produces one simulated day:

* request times follow an inhomogeneous Poisson-like process whose rate
  tracks the profile's hourly demand weights (uniform within an hour),
* pickups are drawn from a mixture of the central 2-D normal cloud and
  the profile's hotspots,
* trip lengths are lognormal and trip directions are biased toward the
  city centre in the morning and away from it in the evening (a light
  commute signal that makes rush hours geographically coherent),
* taxis are placed by a 2-D normal around the centre, exactly as the
  paper describes.

All randomness flows through a seeded ``numpy.random.Generator`` so
traces are fully reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.types import PassengerRequest, Taxi
from repro.geometry.point import Point
from repro.trace.profiles import CityProfile

__all__ = ["SyntheticTraceGenerator", "generate_day", "generate_fleet"]

_SECONDS_PER_HOUR = 3600.0
_SECONDS_PER_DAY = 24.0 * _SECONDS_PER_HOUR

#: Party sizes drawn uniformly, roughly TLC passenger_count frequencies:
#: mostly singles.
_PARTY_SIZES = (1, 1, 1, 1, 1, 1, 1, 2, 2, 3)


class SyntheticTraceGenerator:
    """Generates requests and fleets for one city profile.

    Parameters
    ----------
    profile:
        Calibrated city statistics.
    seed:
        Seed for the internal random generator.
    commute_bias:
        Strength in [0, 1] of the morning-inbound / evening-outbound
        direction bias; 0 draws isotropic trip directions.
    """

    def __init__(self, profile: CityProfile, seed: int = 0, commute_bias: float = 0.35):
        if not 0.0 <= commute_bias <= 1.0:
            raise ValueError(f"commute_bias must be in [0, 1], got {commute_bias}")
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        self._commute_bias = commute_bias

    # -- requests --------------------------------------------------------

    def requests_for_day(self, n_requests: int | None = None, start_id: int = 0) -> list[PassengerRequest]:
        """One day of requests, sorted by request time, ids from ``start_id``."""
        n = self.profile.daily_requests if n_requests is None else n_requests
        if n < 0:
            raise ValueError(f"n_requests must be non-negative, got {n}")
        if n == 0:
            return []
        times = self._request_times(n)
        pickups = self._pickup_points(n)
        requests = []
        for j in range(n):
            time_s = float(times[j])
            pickup = pickups[j]
            dropoff = self._dropoff_for(pickup, time_s)
            requests.append(
                PassengerRequest(
                    request_id=start_id + j,
                    pickup=pickup,
                    dropoff=dropoff,
                    request_time_s=time_s,
                    passengers=self._party_size(),
                )
            )
        return requests

    def requests_for_window(
        self, start_s: float, end_s: float, n_requests: int, start_id: int = 0
    ) -> list[PassengerRequest]:
        """``n_requests`` requests restricted to a clock window of one day.

        The hourly demand shape within the window is preserved; useful for
        rush-hour experiments without simulating the whole day.
        """
        if not 0.0 <= start_s < end_s <= _SECONDS_PER_DAY:
            raise ValueError(f"invalid window [{start_s}, {end_s}]")
        weights = np.asarray(self.profile.normalized_hourly_weights)
        hours = np.arange(24)
        mask = (hours * _SECONDS_PER_HOUR < end_s) & ((hours + 1) * _SECONDS_PER_HOUR > start_s)
        windowed = np.where(mask, weights, 0.0)
        if windowed.sum() <= 0.0:
            raise ValueError("window covers no demand")
        windowed = windowed / windowed.sum()
        hour_choices = self._rng.choice(24, size=n_requests, p=windowed)
        offsets = self._rng.uniform(0.0, _SECONDS_PER_HOUR, size=n_requests)
        times = np.clip(hour_choices * _SECONDS_PER_HOUR + offsets, start_s, end_s - 1e-6)
        times.sort()
        pickups = self._pickup_points(n_requests)
        requests = []
        for j in range(n_requests):
            time_s = float(times[j])
            pickup = pickups[j]
            requests.append(
                PassengerRequest(
                    request_id=start_id + j,
                    pickup=pickup,
                    dropoff=self._dropoff_for(pickup, time_s),
                    request_time_s=time_s,
                    passengers=self._party_size(),
                )
            )
        return requests

    def _request_times(self, n: int) -> np.ndarray:
        weights = np.asarray(self.profile.normalized_hourly_weights)
        hours = self._rng.choice(24, size=n, p=weights)
        offsets = self._rng.uniform(0.0, _SECONDS_PER_HOUR, size=n)
        times = hours * _SECONDS_PER_HOUR + offsets
        times.sort()
        return times

    def _pickup_points(self, n: int) -> list[Point]:
        hotspots = self.profile.demand_hotspots
        weights = np.asarray([1.0] + [h[3] for h in hotspots])
        weights = weights / weights.sum()
        choices = self._rng.choice(len(weights), size=n, p=weights)
        points: list[Point] = []
        for c in choices:
            if c == 0:
                sigma = self.profile.pickup_sigma_km
                center_x, center_y = 0.0, 0.0
            else:
                center_x, center_y, sigma, _ = hotspots[c - 1]
            x = self._rng.normal(center_x, sigma)
            y = self._rng.normal(center_y, sigma)
            points.append(Point(float(x), float(y)))
        return points

    def _dropoff_for(self, pickup: Point, time_s: float) -> Point:
        length = float(
            self._rng.lognormal(self.profile.trip_length_mean_log, self.profile.trip_length_sigma_log)
        )
        # No zero-length trips; the floor carries the profile's length
        # unit so geometry-shrunk cities keep it proportionate.
        length = max(length, 0.2 * self.profile.space_scale)
        angle = float(self._rng.uniform(0.0, 2.0 * math.pi))
        direction_x, direction_y = math.cos(angle), math.sin(angle)
        hour = time_s / _SECONDS_PER_HOUR
        bias = self._commute_bias_at(hour)
        center_gap = math.hypot(pickup.x, pickup.y)
        if abs(bias) > 0.0 and center_gap > 0.0:
            toward_center_x = -pickup.x / center_gap
            toward_center_y = -pickup.y / center_gap
            sign = 1.0 if bias > 0.0 else -1.0
            strength = abs(bias)
            direction_x = (1.0 - strength) * direction_x + strength * sign * toward_center_x
            direction_y = (1.0 - strength) * direction_y + strength * sign * toward_center_y
            norm = math.hypot(direction_x, direction_y)
            if norm > 1e-12:
                direction_x, direction_y = direction_x / norm, direction_y / norm
        return Point(pickup.x + length * direction_x, pickup.y + length * direction_y)

    def _commute_bias_at(self, hour: float) -> float:
        """Positive → trips flow toward the centre (morning commute)."""
        if 6.0 <= hour < 11.0:
            return self._commute_bias
        if 16.0 <= hour < 21.0:
            return -self._commute_bias
        return 0.0

    def _party_size(self) -> int:
        # The draw Generator.choice makes over a 1-D population without
        # ``p``, minus its per-call array conversion.
        return _PARTY_SIZES[int(self._rng.integers(len(_PARTY_SIZES)))]

    # -- taxis -----------------------------------------------------------

    def fleet(self, n_taxis: int | None = None, seats: int = 4) -> list[Taxi]:
        """A fleet placed by the paper's 2-D normal around the centre."""
        n = self.profile.n_taxis if n_taxis is None else n_taxis
        if n < 0:
            raise ValueError(f"n_taxis must be non-negative, got {n}")
        sigma = self.profile.taxi_sigma_km
        xs = self._rng.normal(0.0, sigma, size=n)
        ys = self._rng.normal(0.0, sigma, size=n)
        return [Taxi(taxi_id=i, location=Point(float(xs[i]), float(ys[i])), seats=seats) for i in range(n)]


def generate_day(profile: CityProfile, seed: int = 0, n_requests: int | None = None) -> list[PassengerRequest]:
    """Convenience wrapper: one day of requests for ``profile``."""
    return SyntheticTraceGenerator(profile, seed=seed).requests_for_day(n_requests)


def generate_fleet(profile: CityProfile, seed: int = 0, n_taxis: int | None = None) -> list[Taxi]:
    """Convenience wrapper: a taxi fleet for ``profile``.

    Uses an offset seed so fleets and requests drawn with the same seed
    are independent.
    """
    return SyntheticTraceGenerator(profile, seed=seed + 7919).fleet(n_taxis)
