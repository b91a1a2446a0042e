"""Unit tests for the warm frame solver (``repro.matching.warm_frame``).

The sweeping bit-identity guarantees live in
``tests/property/test_warm_start_properties.py``; these tests pin the
module's *contracts* one by one — address-based retention, matched-row
presentation, fallback triggers, trips read from the caller's operand —
so a failure names the broken rule instead of just "the matching
changed".
"""

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.core.errors import WarmStartError
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance, Point
from repro.geometry.batch import oracle_paired
from repro.matching import build_nonsharing_arrays, passenger_optimal
from repro.matching.warm_frame import (
    frame_state_from_cold,
    warm_frame_solve,
)
from tests.support import CountingOracle

ORACLE = EuclideanDistance()
CONFIG = DispatchConfig()
# Leaves survivors on *both* sides with the frames below (an
# unthresholded market always exhausts its short side), which the
# retention tests rely on.
CONFIG_THRESH = DispatchConfig(passenger_threshold_km=1.0, taxi_threshold_km=2.0)


def _frame(n_taxis=4, n_requests=4, seed=3, spread=1.5):
    rng = np.random.default_rng(seed)
    taxis = [
        Taxi(i, Point(*(float(c) for c in rng.normal(0.0, spread, 2))))
        for i in range(n_taxis)
    ]
    requests = [
        PassengerRequest(
            j,
            Point(*(float(c) for c in rng.normal(0.0, spread, 2))),
            Point(*(float(c) for c in rng.normal(0.0, spread, 2))),
        )
        for j in range(n_requests)
    ]
    return taxis, requests


def _trips(requests):
    return oracle_paired(
        ORACLE,
        sources=[r.pickup for r in requests],
        targets=[r.dropoff for r in requests],
        exact=True,
    )


def _seed_state(taxis, requests, config=CONFIG):
    arrays = build_nonsharing_arrays(taxis, requests, ORACLE, config)
    matching = passenger_optimal(arrays)
    return matching, frame_state_from_cold(
        taxis, requests, matching, trip=_trips(requests), config=config
    )


class TestRetentionByAddress:
    def test_same_objects_are_retained(self):
        taxis, requests = _frame(6, 5, seed=2)
        matching, state = _seed_state(taxis, requests, CONFIG_THRESH)
        # Next frame: the unmatched survivors, as the same objects.
        matched_r = {p for p, _ in matching.pairs}
        matched_t = {t for _, t in matching.pairs}
        next_requests = [r for r in requests if r.request_id not in matched_r]
        next_taxis = [t for t in taxis if t.taxi_id not in matched_t]
        assert next_taxis and next_requests
        _, _, _, stats, _ = warm_frame_solve(
            state, next_taxis, next_requests, ORACLE, CONFIG_THRESH,
            trip_km=_trips(next_requests),
        )
        assert stats.retained_taxis == len(next_taxis)
        assert stats.retained_requests == len(next_requests)
        assert stats.pairs_scored == 0

    def test_rebuilt_equal_objects_classify_as_new(self):
        # Equality is not identity: a caller that rebuilds its entities
        # each frame soundly degrades to all-new (a cold-sized build),
        # never to a wrong answer.
        taxis, requests = _frame(6, 5, seed=2)
        matching, state = _seed_state(taxis, requests, CONFIG_THRESH)
        matched_r = {p for p, _ in matching.pairs}
        matched_t = {t for _, t in matching.pairs}
        clones_r = [
            PassengerRequest(r.request_id, r.pickup, r.dropoff, r.request_time_s, r.passengers)
            for r in requests
            if r.request_id not in matched_r
        ]
        clones_t = [
            Taxi(t.taxi_id, t.location, t.seats) for t in taxis if t.taxi_id not in matched_t
        ]
        assert clones_t and clones_r
        _, _, _, stats, _ = warm_frame_solve(
            state, clones_t, clones_r, ORACLE, CONFIG_THRESH, trip_km=_trips(clones_r)
        )
        assert stats.retained_taxis == 0
        assert stats.retained_requests == 0
        assert stats.pairs_scored == stats.full_pairs

    def test_matched_entity_re_presented_is_new(self):
        # A matched entity's object can legally reappear (a taxi that
        # finished a trip within one frame and did not move); holding
        # its old address must not classify it as retained, because the
        # stability invariant only covers previously *unmatched* pairs.
        taxis, requests = _frame(6, 5, seed=2)
        matching, state = _seed_state(taxis, requests, CONFIG_THRESH)
        assert matching.pairs
        _, _, _, stats, _ = warm_frame_solve(
            state, list(taxis), list(requests), ORACLE, CONFIG_THRESH, trip_km=_trips(requests)
        )
        assert stats.retained_taxis == len(taxis) - len({t for _, t in matching.pairs})
        assert stats.retained_requests == len(requests) - len(
            {p for p, _ in matching.pairs}
        )


class TestSolveOutputs:
    def test_matching_identical_to_cold_and_rows_aligned(self):
        taxis, requests = _frame(5, 6, seed=11)
        _, state = _seed_state(taxis, requests)
        new_taxis, new_requests = _frame(4, 5, seed=12)
        new_taxis = [Taxi(t.taxi_id + 10, t.location, t.seats) for t in new_taxis]
        new_requests = [
            PassengerRequest(r.request_id + 10, r.pickup, r.dropoff) for r in new_requests
        ]
        matching, matched_rows, _, _, _ = warm_frame_solve(
            state, new_taxis, new_requests, ORACLE, CONFIG, trip_km=_trips(new_requests)
        )
        cold = passenger_optimal(build_nonsharing_arrays(new_taxis, new_requests, ORACLE, CONFIG))
        assert matching.pairs == cold.pairs
        t_rows, r_rows = matched_rows
        # Rows index the *presented* sequences, sorted by request id —
        # exactly the order the dispatcher emits assignments in.
        pairs = [
            (new_requests[r].request_id, new_taxis[t].taxi_id)
            for t, r in zip(t_rows.tolist(), r_rows.tolist())
        ]
        assert pairs == sorted(matching.pairs)

    def test_entrant_trips_are_read_from_the_operand(self):
        # The solver measures no trip: an entrant's carried trip fact is
        # its row of ``trip_km``, and the only oracle calls are strips.
        taxis, requests = _frame()
        matching, state = _seed_state(taxis, requests)
        matched_r = {p for p, _ in matching.pairs}
        survivors = [r for r in requests if r.request_id not in matched_r]
        frame = survivors + [PassengerRequest(100, Point(0.5, 0.5), Point(1.5, -0.5))]
        trip_km = _trips(frame)
        oracle = CountingOracle(ORACLE)
        *_, new_state = warm_frame_solve(
            state, [Taxi(50, Point(0.0, 0.0))], frame, oracle, CONFIG, trip_km=trip_km
        )
        assert oracle.paired_calls == 0 and oracle.pairwise_calls >= 1
        assert new_state.rfacts[-1, 3] == trip_km[-1]


class TestFallbacks:
    def test_duplicate_taxi_ids_raise(self):
        taxis, requests = _frame()
        _, state = _seed_state(taxis, requests)
        dupes = [Taxi(9, Point(1.0, 0.0)), Taxi(8, Point(0.0, 1.0)), Taxi(8, Point(1.0, 1.0))]
        with pytest.raises(WarmStartError) as err:
            lone = [PassengerRequest(99, Point(0, 0), Point(1, 1))]
            warm_frame_solve(state, dupes, lone, ORACLE, CONFIG, trip_km=_trips(lone))
        assert err.value.reason == "duplicate-ids"

    def test_duplicate_request_ids_raise(self):
        taxis, requests = _frame()
        _, state = _seed_state(taxis, requests)
        dupes = [
            PassengerRequest(9, Point(0, 0), Point(1, 1)),
            PassengerRequest(8, Point(1, 0), Point(0, 1)),
            PassengerRequest(8, Point(0, 1), Point(1, 0)),
        ]
        with pytest.raises(WarmStartError) as err:
            warm_frame_solve(
                state, [Taxi(50, Point(0.0, 0.0))], dupes, ORACLE, CONFIG, trip_km=_trips(dupes)
            )
        assert err.value.reason == "duplicate-ids"

    def test_negative_alpha_raises(self):
        taxis, requests = _frame()
        _, state = _seed_state(taxis, requests)
        with pytest.raises(WarmStartError) as err:
            warm_frame_solve(
                state,
                [Taxi(50, Point(0.0, 0.0))],
                [PassengerRequest(99, Point(0, 0), Point(1, 1))],
                ORACLE,
                CONFIG,
                trip_km=np.array([2.0**0.5]),
                alpha_by_taxi={50: -1.0},
            )
        assert err.value.reason == "bad-alpha"

    def test_id_overflow_frame_falls_back_to_the_cold_schedule(self):
        # The keyed rounds carry ids in a float64 lane; an id at 2^53
        # or beyond cannot ride there exactly, so the dispatcher must
        # count the fallback and answer the frame exactly as cold.
        taxis, requests = _frame(5, 6, seed=4)
        big = [
            PassengerRequest(2**53 + j, r.pickup, r.dropoff)
            for j, r in enumerate(_frame(3, 3, seed=5)[1])
        ]
        warm = NSTDDispatcher(ORACLE, CONFIG, warm_start=True)
        cold = NSTDDispatcher(ORACLE, CONFIG)
        for frame in (requests, big):
            warm_schedule = warm.dispatch(taxis, frame)
            cold_schedule = cold.dispatch(taxis, frame)
            assert [(a.taxi_id, a.request_ids, a.stops) for a in warm_schedule.assignments] == [
                (a.taxi_id, a.request_ids, a.stops) for a in cold_schedule.assignments
            ]
        telemetry = warm.run_telemetry()
        assert telemetry["warm_fallback_id-overflow"] == 1
        assert telemetry["cold_frames"] == 2


class TestRequestTrips:
    def test_matches_scalar_oracle(self):
        _, requests = _frame(1, 7, seed=21)
        np.testing.assert_array_equal(
            oracle_paired(
                ORACLE,
                sources=[r.pickup for r in requests],
                targets=[r.dropoff for r in requests],
                exact=True,
            ),
            np.array([r.trip_distance(ORACLE) for r in requests]),
        )

    def test_empty(self):
        assert oracle_paired(ORACLE, sources=[], targets=[], exact=True).size == 0
