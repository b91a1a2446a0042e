"""Trip-record model shared by trace loaders and generators.

A :class:`TripRecord` is one row of a taxi trace: when the request was
made and where the trip starts and ends.  Records keep raw coordinates
(either already-projected kilometres or lon/lat degrees); conversion to
:class:`repro.core.types.PassengerRequest` happens through a
:class:`Projection`, so loaders stay schema-focused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.core.errors import TraceFormatError
from repro.core.types import PassengerRequest
from repro.geometry.point import Point

__all__ = ["TripRecord", "Projection", "EquirectangularProjection", "IdentityProjection", "records_to_requests"]


@dataclass(frozen=True, slots=True)
class TripRecord:
    """One taxi trip: request time plus pickup/dropoff coordinates.

    ``pickup``/``dropoff`` are raw coordinates in the source's own system
    (lon/lat for real traces, km for synthetic ones).
    """

    request_time_s: float
    pickup: tuple[float, float]
    dropoff: tuple[float, float]
    passengers: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.request_time_s) or self.request_time_s < 0.0:
            raise TraceFormatError(f"request time {self.request_time_s} is not finite and ≥ 0")
        if not all(math.isfinite(v) for v in (*self.pickup, *self.dropoff)):
            raise TraceFormatError(
                f"non-finite coordinate in pickup {self.pickup} or dropoff {self.dropoff}"
            )
        if self.passengers < 1:
            raise TraceFormatError(f"non-positive passenger count {self.passengers}")


class Projection:
    """Maps raw record coordinates to planar kilometres."""

    def to_point(self, raw: tuple[float, float]) -> Point:
        raise NotImplementedError


class IdentityProjection(Projection):
    """Raw coordinates are already planar kilometres."""

    def to_point(self, raw: tuple[float, float]) -> Point:
        return Point(float(raw[0]), float(raw[1]))


class EquirectangularProjection(Projection):
    """Equirectangular lon/lat → km projection around a reference point.

    Accurate to well under a percent at city scale, which is all the
    dispatch distances need.
    """

    KM_PER_DEGREE_LAT = 111.32

    def __init__(self, ref_lon: float, ref_lat: float):
        self._ref_lon = float(ref_lon)
        self._ref_lat = float(ref_lat)
        self._km_per_degree_lon = self.KM_PER_DEGREE_LAT * math.cos(math.radians(ref_lat))

    def to_point(self, raw: tuple[float, float]) -> Point:
        lon, lat = raw
        return Point(
            (lon - self._ref_lon) * self._km_per_degree_lon,
            (lat - self._ref_lat) * self.KM_PER_DEGREE_LAT,
        )

    @classmethod
    def centered_on(cls, records: Sequence[TripRecord]) -> "EquirectangularProjection":
        """A projection centred on the mean pickup of ``records``."""
        if not records:
            raise TraceFormatError("cannot centre a projection on an empty trace")
        mean_lon = sum(r.pickup[0] for r in records) / len(records)
        mean_lat = sum(r.pickup[1] for r in records) / len(records)
        return cls(mean_lon, mean_lat)


def records_to_requests(
    records: Iterable[TripRecord],
    projection: Projection | None = None,
    start_id: int = 0,
) -> list[PassengerRequest]:
    """Convert records into requests, sorted by request time.

    Ids are assigned in time order starting at ``start_id`` so that
    Algorithm 2's Rule-2 ordering matches arrival order.
    """
    projection = projection if projection is not None else IdentityProjection()
    ordered = sorted(records, key=lambda r: r.request_time_s)
    return [
        PassengerRequest(
            request_id=start_id + j,
            pickup=projection.to_point(record.pickup),
            dropoff=projection.to_point(record.dropoff),
            request_time_s=record.request_time_s,
            passengers=record.passengers,
        )
        for j, record in enumerate(ordered)
    ]
