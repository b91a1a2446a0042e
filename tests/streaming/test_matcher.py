"""ZoneMatcher: global-solve equality and warm reuse.

The matcher's contract is that each epoch's union of per-group
matchings equals the global NSTD-P solve of the same inputs — warm or
cold.  The zone edge is derived from ``CONFIG``'s acceptability radius
(the 2 km passenger threshold), so the zone grid is 2 km.
"""

import numpy as np
import pytest

from repro.core.config import DispatchConfig
from repro.core.errors import PreferenceError
from repro.core.types import PassengerRequest, Taxi
from repro.geometry import EuclideanDistance, Point
from repro.matching.sharding import solve_shard
from repro.streaming import ZoneMatcher
from tests.support import epoch_columns

ORACLE = EuclideanDistance()
CONFIG = DispatchConfig(passenger_threshold_km=2.0)


def _taxi(tid: int, x: float, y: float = 0.0) -> Taxi:
    return Taxi(taxi_id=tid, location=Point(x, y))


def _request(rid: int, x: float, y: float = 0.0) -> PassengerRequest:
    return PassengerRequest(
        request_id=rid,
        pickup=Point(x, y),
        dropoff=Point(x + 1.0, y),
        request_time_s=0.0,
    )


def _trip(requests) -> np.ndarray:
    return np.array(
        [ORACLE.distance(r.pickup, r.dropoff) for r in requests], dtype=np.float64
    )


def _global_pairs(taxis, requests) -> dict[int, int]:
    matched = solve_shard(taxis, requests, ORACLE, CONFIG, trip_km=_trip(requests))
    return dict(matched.pairs)


def _matcher() -> ZoneMatcher:
    return ZoneMatcher(ORACLE, CONFIG)


class TestEpochEquality:
    def test_multi_zone_epoch_equals_global_solve(self):
        taxis = [_taxi(1, 0.3), _taxi(2, 1.1), _taxi(3, 50.2), _taxi(4, 50.9)]
        requests = [
            _request(10, 0.5), _request(11, 1.4),
            _request(12, 50.4), _request(13, 51.0),
        ]
        matcher = _matcher()
        report = matcher.match_epoch(
            taxis, requests, **epoch_columns(taxis, requests, _trip(requests))
        )
        assert report.pairs == _global_pairs(taxis, requests)
        assert report.plan is not None and report.plan.degenerate_reason is None
        assert report.cold_groups == len(report.plan.groups)
        assert matcher.zone_km_effective == 2.0

    def test_cross_boundary_pair_is_kept(self):
        """The boundary taxi/request pair must survive zone sharding."""
        taxis = [_taxi(1, 1.9)]
        requests = [_request(10, 2.1)]
        report = _matcher().match_epoch(
            taxis, requests, **epoch_columns(taxis, requests, _trip(requests))
        )
        assert report.pairs == {10: 1}
        assert report.plan.boundary_merges == 1

    def test_zero_supply_zone_requests_stay_unmatched(self):
        taxis = [_taxi(1, 0.5)]
        requests = [_request(10, 0.6), _request(11, 50.0)]
        report = _matcher().match_epoch(
            taxis, requests, **epoch_columns(taxis, requests, _trip(requests))
        )
        assert report.pairs == {10: 1}
        assert 11 not in report.pairs

    def test_degenerate_epoch_still_equals_global_solve(self):
        """Unbounded radii: one city-wide group, exact nevertheless."""
        matcher = ZoneMatcher(ORACLE, DispatchConfig())
        taxis = [_taxi(1, 0.3), _taxi(2, 30.0)]
        requests = [_request(10, 0.5), _request(11, 30.2)]
        report = matcher.match_epoch(
            taxis, requests, **epoch_columns(taxis, requests, _trip(requests))
        )
        matched = solve_shard(
            taxis, requests, ORACLE, DispatchConfig(), trip_km=_trip(requests)
        )
        assert report.pairs == dict(matched.pairs)
        assert report.plan.degenerate_reason is not None

    def test_empty_sides_return_empty_report(self):
        matcher = _matcher()
        lone = [_request(10, 0.5)]
        report = matcher.match_epoch([], lone, **epoch_columns([], lone, _trip(lone)))
        assert report.pairs == {} and report.plan is None
        report = matcher.match_epoch(
            [_taxi(1, 0.5)], [], **epoch_columns([_taxi(1, 0.5)], [], np.empty(0))
        )
        assert report.pairs == {} and report.plan is None


class TestIdGuard:
    """The frame-wide id check on request ids that do not ascend."""

    def test_duplicate_request_id_raises(self):
        taxis = [_taxi(1, 0.3), _taxi(2, 50.2)]
        requests = [_request(12, 0.5), _request(10, 50.4), _request(12, 51.0)]
        with pytest.raises(PreferenceError):
            _matcher().match_epoch(
                taxis, requests, **epoch_columns(taxis, requests, _trip(requests))
            )

    def test_unsorted_unique_ids_equal_the_global_solve(self):
        taxis = [_taxi(4, 50.9), _taxi(1, 0.3), _taxi(3, 50.2), _taxi(2, 1.1)]
        requests = [
            _request(13, 51.0), _request(10, 0.5),
            _request(12, 50.4), _request(11, 1.4),
        ]
        report = _matcher().match_epoch(
            taxis, requests, **epoch_columns(taxis, requests, _trip(requests))
        )
        assert report.pairs == _global_pairs(taxis, requests)
        assert len(report.pairs) == 4

    def test_columns_of_another_request_list_rejected(self):
        taxis = [_taxi(1, 0.3)]
        requests = [_request(10, 0.5), _request(11, 1.4)]
        with pytest.raises(ValueError):
            _matcher().match_epoch(
                taxis, requests, **epoch_columns(taxis, requests[:1], _trip(requests[:1]))
            )

    def test_positions_of_another_taxi_list_rejected(self):
        taxis = [_taxi(1, 0.3), _taxi(2, 1.1)]
        requests = [_request(10, 0.5)]
        with pytest.raises(ValueError):
            _matcher().match_epoch(
                taxis, requests, **epoch_columns(taxis[:1], requests, _trip(requests))
            )


class TestWarmReuse:
    def test_recurring_anchor_resumes_warm_and_stays_exact(self):
        """Epoch 2 presents the leftover taxi (same object) plus a new
        request: the zone's anchor recurs, the solve goes warm, and the
        result still equals the cold global solve of epoch 2's inputs."""
        matcher = _matcher()
        taxi_kept = _taxi(2, 1.2)
        taxis1 = [_taxi(1, 0.3), taxi_kept]
        requests1 = [_request(10, 0.4)]
        report1 = matcher.match_epoch(
            taxis1, requests1, **epoch_columns(taxis1, requests1, _trip(requests1))
        )
        assert report1.pairs == {10: 1}
        assert report1.cold_groups >= 1 and report1.warm_groups == 0

        taxis2 = [taxi_kept]
        requests2 = [_request(11, 1.3)]
        report2 = matcher.match_epoch(
            taxis2, requests2, **epoch_columns(taxis2, requests2, _trip(requests2))
        )
        assert report2.pairs == _global_pairs(taxis2, requests2) == {11: 2}
        assert report2.warm_groups == 1
        telemetry = matcher.run_telemetry()
        assert telemetry.get("warm_frames", 0) == 1
        assert telemetry.get("cold_frames", 0) >= 1

    def test_vanished_anchor_state_is_pruned(self):
        matcher = _matcher()
        taxis1 = [_taxi(1, 0.3), _taxi(2, 50.0)]
        requests1 = [_request(10, 0.4), _request(11, 50.2)]
        matcher.match_epoch(taxis1, requests1, **epoch_columns(taxis1, requests1, _trip(requests1)))
        assert len(matcher._states) == 2
        # Next epoch only the first cluster is present: the other
        # anchor's state must be dropped, not pinned forever.
        taxis2 = [_taxi(3, 0.5)]
        requests2 = [_request(12, 0.6)]
        matcher.match_epoch(taxis2, requests2, **epoch_columns(taxis2, requests2, _trip(requests2)))
        assert len(matcher._states) == 1

    def test_reset_drops_states(self):
        matcher = _matcher()
        taxis = [_taxi(1, 0.3)]
        requests = [_request(10, 0.4)]
        matcher.match_epoch(taxis, requests, **epoch_columns(taxis, requests, _trip(requests)))
        assert matcher._states
        matcher.reset(counters=True)
        assert matcher._states == {}
        assert matcher.run_telemetry() == {}
