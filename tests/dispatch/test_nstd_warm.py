"""Dispatcher-level warm-start behaviour of :class:`NSTDDispatcher`.

Covers the lifecycle around the solver: the opt-in flag's
preconditions, cold seeding of the first frame, transparent fallback
with telemetry, state reset semantics, and the packed egress schedule
of warm frames.  The frame-by-frame bit-identity guarantees live in the
property suite.
"""

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.core.errors import PreferenceError
from repro.dispatch.base import PackedSingleSchedule
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance, Point

ORACLE = EuclideanDistance()
CLUSTER_CONFIG = DispatchConfig(passenger_threshold_km=3.0, taxi_threshold_km=5.0)


def _frame():
    taxis = [Taxi(0, Point(0.0, 0.0)), Taxi(1, Point(3.0, 0.0)), Taxi(2, Point(0.0, 3.0))]
    requests = [
        PassengerRequest(0, Point(1.0, 0.0), Point(2.0, 2.0)),
        PassengerRequest(1, Point(0.0, 1.0), Point(-2.0, 1.0)),
    ]
    return taxis, requests


class TestWarmStartFlag:
    def test_off_by_default(self):
        dispatcher = NSTDDispatcher(ORACLE)
        assert not dispatcher.warm_start
        taxis, requests = _frame()
        dispatcher.dispatch(taxis, requests)
        assert dispatcher.run_telemetry() == {}


class TestWarmLifecycle:
    def test_first_frame_is_cold_then_warm(self):
        dispatcher = NSTDDispatcher(ORACLE, warm_start=True)
        taxis, requests = _frame()
        dispatcher.dispatch(taxis, requests)
        assert dispatcher.run_telemetry() == {"cold_frames": 1}
        dispatcher.dispatch([t for t in taxis if t.taxi_id == 2], requests)
        telemetry = dispatcher.run_telemetry()
        assert telemetry["cold_frames"] == 1
        assert telemetry["warm_frames"] == 1
        assert telemetry["pairs_scored_warm"] <= telemetry["full_pairs_warm"]

    def test_empty_frames_leave_state_and_counters_alone(self):
        dispatcher = NSTDDispatcher(ORACLE, warm_start=True)
        taxis, requests = _frame()
        dispatcher.dispatch(taxis, requests)
        dispatcher.dispatch([], requests)
        dispatcher.dispatch(taxis, [])
        assert dispatcher.run_telemetry() == {"cold_frames": 1}
        dispatcher.dispatch(taxis, requests)
        assert dispatcher.run_telemetry()["warm_frames"] == 1

    def test_duplicate_ids_fall_back_and_surface_the_cold_error(self):
        # Duplicate-id frames are illegal input everywhere: the cold
        # builder rejects them with PreferenceError.  The warm layer
        # must neither mask nor change that — it records the failed
        # warm precondition in telemetry, redoes the frame cold, and
        # lets the cold path's own verdict surface.
        warm = NSTDDispatcher(ORACLE, warm_start=True)
        cold = NSTDDispatcher(ORACLE)
        taxis, requests = _frame()
        warm.dispatch(taxis, requests)
        cold.dispatch(taxis, requests)
        bad = [Taxi(9, Point(2.0, 2.0)), Taxi(8, Point(0.0, 2.0)), Taxi(8, Point(2.0, 0.0))]
        fresh = [PassengerRequest(7, Point(2.0, 1.0), Point(0.0, 0.0))]
        with pytest.raises(PreferenceError):
            cold.dispatch(bad, fresh)
        with pytest.raises(PreferenceError):
            warm.dispatch(bad, fresh)
        telemetry = warm.run_telemetry()
        assert telemetry["warm_fallbacks"] == 1
        assert telemetry["warm_fallback_duplicate-ids"] == 1

    def test_non_finite_entrant_raises_the_cold_error(self):
        # Warm strips go through the same validating batch API as the
        # cold pickup matrix, so a NaN entrant fails both frames alike.
        warm = NSTDDispatcher(ORACLE, warm_start=True)
        cold = NSTDDispatcher(ORACLE)
        taxis, requests = _frame()
        first = warm.dispatch(taxis, requests)
        cold.dispatch(taxis, requests)
        idle = [t for t in taxis if t.taxi_id not in first.dispatched_taxi_ids]
        assert idle
        entrants = idle + [Taxi(9, Point(float("nan"), 0.0))]
        fresh = [PassengerRequest(7, Point(2.0, 1.0), Point(0.0, 0.0))]
        with pytest.raises(ValueError) as cold_error:
            cold.dispatch(entrants, fresh)
        with pytest.raises(ValueError) as warm_error:
            warm.dispatch(entrants, fresh)
        assert str(warm_error.value) == str(cold_error.value)
        assert warm.last_frame_mode == "cold"  # the warm frame never completed

    def test_fallback_clears_state_and_reseeds(self):
        dispatcher = NSTDDispatcher(ORACLE, warm_start=True)
        taxis, requests = _frame()
        dispatcher.dispatch(taxis, requests)
        bad = [Taxi(8, Point(0.0, 2.0)), Taxi(8, Point(2.0, 0.0))]
        with pytest.raises(PreferenceError):
            dispatcher.dispatch(bad, [PassengerRequest(7, Point(2.0, 1.0), Point(0.0, 0.0))])
        # The poisoned frame dropped the carried state; the next valid
        # frame re-seeds cold and the one after runs warm again.
        dispatcher.dispatch(taxis, [PassengerRequest(9, Point(0.5, 0.5), Point(1.0, 1.0))])
        dispatcher.dispatch(taxis, [PassengerRequest(10, Point(0.4, 0.6), Point(1.0, 1.0))])
        telemetry = dispatcher.run_telemetry()
        assert telemetry["warm_fallbacks"] == 1
        assert telemetry["warm_frames"] == 1

    def test_reset_warm_state(self):
        dispatcher = NSTDDispatcher(ORACLE, warm_start=True)
        taxis, requests = _frame()
        dispatcher.dispatch(taxis, requests)
        dispatcher.reset_warm_state()
        # State dropped, counters kept: the next frame re-seeds cold.
        dispatcher.dispatch(taxis, requests)
        assert dispatcher.run_telemetry()["cold_frames"] == 2
        dispatcher.reset_warm_state(counters=True)
        assert dispatcher.run_telemetry() == {}

    def test_taxi_mode_also_warms(self):
        dispatcher = NSTDDispatcher(ORACLE, optimize_for="taxi", warm_start=True)
        taxis, requests = _frame()
        dispatcher.dispatch(taxis, requests)
        dispatcher.dispatch(
            [t for t in taxis if t.taxi_id == 2],
            [PassengerRequest(5, Point(0.2, 2.5), Point(1.0, 1.0))],
        )
        assert dispatcher.run_telemetry()["warm_frames"] == 1


def _clustered_frame(seed=11, n_clusters=3, per_cluster=4):
    """Several well-separated clusters of taxis and requests."""
    rng = np.random.default_rng(seed)
    taxis, requests = [], []
    for c in range(n_clusters):
        cx = c * 100.0
        for _ in range(per_cluster):
            taxis.append(Taxi(len(taxis), Point(cx + rng.uniform(-1, 1), rng.uniform(-1, 1))))
            requests.append(
                PassengerRequest(
                    1000 + len(requests),
                    Point(cx + rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    Point(cx + rng.uniform(-1, 1), rng.uniform(-1, 1)),
                )
            )
    return taxis, requests


def _pairs_of(schedule):
    return sorted((a.taxi_id, a.request_ids) for a in schedule.assignments)


class TestPackedEgress:
    def _warm_frames(self, mode="passenger"):
        """Two engine-contract frames; frame two is warm and non-empty."""
        rng = np.random.default_rng(31)
        taxis, requests = _clustered_frame(seed=31)
        # More requests than taxis, so frame two still has a queue.
        requests += [
            PassengerRequest(
                2000 + i,
                Point(i % 3 * 100.0 + rng.uniform(-1, 1), rng.uniform(-1, 1)),
                Point(i % 3 * 100.0 + rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            for i in range(6)
        ]
        dispatcher = NSTDDispatcher(
            ORACLE, CLUSTER_CONFIG, optimize_for=mode, warm_start=True
        )
        first = dispatcher.dispatch(taxis, requests)
        served = first.served_request_ids
        dispatched = first.dispatched_taxi_ids
        # Dispatched taxis return as fresh objects at new positions.
        next_taxis = [t for t in taxis if t.taxi_id not in dispatched] + [
            Taxi(
                t.taxi_id,
                Point(float(rng.integers(0, 3)) * 100.0 + rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            for t in taxis
            if t.taxi_id in dispatched
        ]
        next_requests = [r for r in requests if r.request_id not in served]
        second = dispatcher.dispatch(next_taxis, next_requests)
        assert next_taxis and next_requests and second.assignments
        return dispatcher, next_taxis, next_requests, second

    def test_warm_frame_returns_packed_schedule(self):
        dispatcher, _, _, second = self._warm_frames()
        assert isinstance(second, PackedSingleSchedule)
        assert dispatcher.run_telemetry().get("warm_frames", 0) == 1

    def test_packed_schedule_matches_cold_dispatcher(self):
        for mode in ("passenger", "taxi"):
            _, taxis, requests, second = self._warm_frames(mode)
            cold = NSTDDispatcher(ORACLE, CLUSTER_CONFIG, optimize_for=mode)
            assert _pairs_of(second) == _pairs_of(cold.dispatch(taxis, requests))

    def test_lazy_assignments_materialize_once(self):
        _, taxis, requests, second = self._warm_frames()
        first_read = second.assignments
        assert second.assignments is first_read  # memoized in the slot
        for assignment, (t_row, r_row) in zip(
            first_read, zip(second.taxi_rows.tolist(), second.request_rows.tolist())
        ):
            assert assignment.taxi_id == taxis[t_row].taxi_id
            assert assignment.request_ids == (requests[r_row].request_id,)
            pickup, dropoff = assignment.stops
            assert pickup.is_pickup and not dropoff.is_pickup
            assert pickup.point == requests[r_row].pickup
            assert dropoff.point == requests[r_row].dropoff

    def test_packed_legs_are_bit_exact(self):
        for mode in ("passenger", "taxi"):
            _, taxis, requests, second = self._warm_frames(mode)
            assert second.pickup_km is not None
            for index, (t_row, r_row) in enumerate(
                zip(second.taxi_rows.tolist(), second.request_rows.tolist())
            ):
                request = requests[r_row]
                assert second.pickup_km[index] == ORACLE.distance(
                    taxis[t_row].location, request.pickup
                )
