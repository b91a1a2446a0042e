"""Unit tests for the warm frame solver (``repro.matching.warm_frame``).

The sweeping bit-identity guarantees live in
``tests/property/test_warm_start_properties.py``; these tests pin the
module's *contracts* one by one — retention by id and bit-equal facts,
matched-row presentation, fallback triggers, operands checked against
each other, trips read from the caller's operand — so a failure names
the broken rule instead of just "the matching changed".
"""

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.core.errors import WarmStartError
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance, Point
from repro.geometry.batch import oracle_paired
from repro.matching import Matching, build_nonsharing_arrays, passenger_optimal
from repro.matching import warm_frame
from repro.matching.warm_frame import (
    FrameOperands,
    frame_operands,
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


def _operands(taxis, requests, config=CONFIG, alpha_by_taxi=None, trip_km=None):
    trip = _trips(requests) if trip_km is None else trip_km
    return frame_operands(
        taxis, requests, trip_km=trip, alpha=config.alpha, alpha_by_taxi=alpha_by_taxi
    )


def _solve(state, taxis, requests, config=CONFIG, oracle=ORACLE, **kwargs):
    return warm_frame_solve(state, _operands(taxis, requests, config, **kwargs), oracle, config)


def _seed_state(taxis, requests, config=CONFIG):
    arrays = build_nonsharing_arrays(taxis, requests, ORACLE, config)
    matching = passenger_optimal(arrays)
    return matching, frame_state_from_cold(_operands(taxis, requests, config), matching)


def _survivors(matching, taxis, requests):
    """The entities ``matching`` left unmatched, as the same objects."""
    matched_r = {p for p, _ in matching.pairs}
    matched_t = {t for _, t in matching.pairs}
    return (
        [t for t in taxis if t.taxi_id not in matched_t],
        [r for r in requests if r.request_id not in matched_r],
    )


class TestRetention:
    def test_same_objects_are_retained(self):
        taxis, requests = _frame(6, 5, seed=2)
        matching, state = _seed_state(taxis, requests, CONFIG_THRESH)
        # Next frame: the unmatched survivors, as the same objects.
        next_taxis, next_requests = _survivors(matching, taxis, requests)
        assert next_taxis and next_requests
        _, _, _, stats, _ = _solve(state, next_taxis, next_requests, CONFIG_THRESH)
        assert stats.retained_taxis == len(next_taxis)
        assert stats.retained_requests == len(next_requests)
        assert stats.pairs_scored == 0

    def test_rebuilt_equal_objects_are_retained(self):
        # Retention reads ids and facts, not objects: a caller that
        # rebuilds equal entities each frame keeps the warm saving, and
        # the frame still solves exactly as cold.
        taxis, requests = _frame(6, 5, seed=2)
        matching, state = _seed_state(taxis, requests, CONFIG_THRESH)
        survivors_t, survivors_r = _survivors(matching, taxis, requests)
        clones_r = [
            PassengerRequest(r.request_id, r.pickup, r.dropoff, r.request_time_s, r.passengers)
            for r in survivors_r
        ] + [PassengerRequest(50, Point(0.1, 0.2), Point(0.9, 0.4))]
        clones_t = [Taxi(t.taxi_id, t.location, t.seats) for t in survivors_t]
        assert clones_t and len(clones_r) > 1
        matching, _, _, stats, _ = _solve(state, clones_t, clones_r, CONFIG_THRESH)
        assert stats.retained_taxis == len(clones_t)
        assert stats.retained_requests == len(clones_r) - 1
        assert stats.pairs_scored == len(clones_t) < stats.full_pairs
        cold = passenger_optimal(
            build_nonsharing_arrays(clones_t, clones_r, ORACLE, CONFIG_THRESH)
        )
        assert matching.pairs == cold.pairs

    def test_matched_entity_re_presented_is_new(self):
        # A matched entity can legally reappear (a taxi that finished a
        # trip within one frame and did not move); its id is not in the
        # unmatched index, so it re-enters as new, because the
        # stability invariant only covers previously *unmatched* pairs.
        taxis, requests = _frame(6, 5, seed=2)
        matching, state = _seed_state(taxis, requests, CONFIG_THRESH)
        assert matching.pairs
        _, _, _, stats, _ = _solve(state, list(taxis), list(requests), CONFIG_THRESH)
        assert stats.retained_taxis == len(taxis) - len({t for _, t in matching.pairs})
        assert stats.retained_requests == len(requests) - len(
            {p for p, _ in matching.pairs}
        )

    @pytest.mark.parametrize("change", ["moved", "alpha"])
    def test_changed_taxi_under_the_same_id_is_new(self, change):
        # Two unmatched taxis far from the lone request; next frame one
        # of them, same id, either drove next to it or would now accept
        # it at a cheaper α.  Retained by id alone it would be skipped
        # against the retained request and the frame would miss the
        # pair the cold solve makes.
        config = DispatchConfig(passenger_threshold_km=3.0, taxi_threshold_km=0.0)
        request = PassengerRequest(1, Point(0.0, 0.0), Point(1.0, 0.0))
        taxis = [Taxi(7, Point(2.5, 0.0)), Taxi(8, Point(9.0, 9.0))]
        alphas = {7: 1.0}
        matching = passenger_optimal(
            build_nonsharing_arrays(taxis, [request], ORACLE, config, alpha_by_taxi=alphas)
        )
        assert not matching.pairs
        state = frame_state_from_cold(
            _operands(taxis, [request], config, alpha_by_taxi=alphas), matching
        )
        if change == "moved":
            next_taxis = [Taxi(7, Point(0.5, 0.0)), taxis[1]]
        else:
            next_taxis, alphas = taxis, {7: 3.0}
        matching, _, _, stats, _ = _solve(
            state, next_taxis, [request], config, alpha_by_taxi=alphas
        )
        cold = passenger_optimal(
            build_nonsharing_arrays(next_taxis, [request], ORACLE, config, alpha_by_taxi=alphas)
        )
        assert matching.pairs == cold.pairs == {(1, 7)}
        assert (stats.retained_taxis, stats.retained_requests) == (1, 1)

    def test_moved_request_under_the_same_id_is_new(self):
        config = DispatchConfig(passenger_threshold_km=1.0, taxi_threshold_km=2.0)
        taxis = [Taxi(7, Point(0.0, 0.0))]
        request = PassengerRequest(1, Point(5.0, 0.0), Point(6.0, 0.0))
        matching, state = _seed_state(taxis, [request], config)
        assert not matching.pairs
        moved = PassengerRequest(1, Point(0.5, 0.0), Point(6.0, 0.0))
        matching, _, _, stats, _ = _solve(state, taxis, [moved], config)
        assert matching.pairs == {(1, 7)}
        assert (stats.retained_taxis, stats.retained_requests) == (1, 0)


class TestSolveOutputs:
    def test_matching_identical_to_cold_and_rows_aligned(self):
        taxis, requests = _frame(5, 6, seed=11)
        _, state = _seed_state(taxis, requests)
        new_taxis, new_requests = _frame(4, 5, seed=12)
        new_taxis = [Taxi(t.taxi_id + 10, t.location, t.seats) for t in new_taxis]
        new_requests = [
            PassengerRequest(r.request_id + 10, r.pickup, r.dropoff) for r in new_requests
        ]
        matching, matched_rows, _, _, _ = _solve(state, new_taxis, new_requests)
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
        *_, new_state = _solve(
            state, [Taxi(50, Point(0.0, 0.0))], frame, oracle=oracle, trip_km=trip_km
        )
        assert oracle.paired_calls == 0 and oracle.pairwise_calls >= 1
        assert new_state.frame.trip_km[-1] == trip_km[-1]


class TestFallbacks:
    def test_duplicate_taxi_ids_raise(self):
        taxis, requests = _frame()
        _, state = _seed_state(taxis, requests)
        dupes = [Taxi(9, Point(1.0, 0.0)), Taxi(8, Point(0.0, 1.0)), Taxi(8, Point(1.0, 1.0))]
        with pytest.raises(WarmStartError) as err:
            _solve(state, dupes, [PassengerRequest(99, Point(0, 0), Point(1, 1))])
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
            _solve(state, [Taxi(50, Point(0.0, 0.0))], dupes)
        assert err.value.reason == "duplicate-ids"

    def test_duplicate_ids_raise_before_classification(self, monkeypatch):
        # Both copies of a retained id would find its index entry; the
        # repeat must be refused before any lookup.
        taxis, requests = _frame(6, 5, seed=2)
        matching, state = _seed_state(taxis, requests, CONFIG_THRESH)
        survivors_t, survivors_r = _survivors(matching, taxis, requests)

        def classified(*_args):
            raise AssertionError("classified a frame with repeated ids")

        monkeypatch.setattr(warm_frame, "_retained", classified)
        with pytest.raises(WarmStartError) as err:
            _solve(state, survivors_t + survivors_t[:1], survivors_r, CONFIG_THRESH)
        assert err.value.reason == "duplicate-ids"

    def test_negative_alpha_raises(self):
        taxis, requests = _frame()
        _, state = _seed_state(taxis, requests)
        with pytest.raises(WarmStartError) as err:
            _solve(
                state,
                [Taxi(50, Point(0.0, 0.0))],
                [PassengerRequest(99, Point(0, 0), Point(1, 1))],
                alpha_by_taxi={50: -1.0},
            )
        assert err.value.reason == "bad-alpha"

    def test_non_finite_entrant_raises_the_cold_error(self):
        taxis, requests = _frame()
        _, state = _seed_state(taxis, requests)
        nan_request = [PassengerRequest(99, Point(float("nan"), 0.0), Point(1.0, 1.0))]
        with pytest.raises(ValueError) as warm_err:
            _solve(state, taxis, nan_request)
        with pytest.raises(ValueError) as cold_err:
            build_nonsharing_arrays(taxis, nan_request, ORACLE, CONFIG)
        assert str(warm_err.value) == str(cold_err.value)

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


class TestOperandLengths:
    """Every operand must describe its list row for row: a trip vector
    or a fact matrix of another length is an error, never a silent
    partial read."""

    @pytest.mark.parametrize("delta", [1, -1], ids=["longer", "shorter"])
    def test_trip_vector_of_another_length_is_rejected(self, delta):
        taxis, requests = _frame()
        trips = _trips(requests)
        trips = np.append(trips, 1.0) if delta > 0 else trips[:-1]
        with pytest.raises(ValueError, match="trip_km"):
            frame_operands(taxis, requests, trip_km=trips, alpha=CONFIG.alpha)

    @pytest.mark.parametrize("side", ["taxi", "request"])
    @pytest.mark.parametrize("delta", [1, -1], ids=["longer", "shorter"])
    def test_fact_rows_of_another_length_are_rejected(self, side, delta):
        taxis, requests = _frame()
        _, state = _seed_state(taxis, requests)
        frame = _operands(taxis, requests)
        field = f"{side}_facts"
        facts = getattr(frame, field)
        facts = np.vstack([facts, facts[:1]]) if delta > 0 else facts[:-1]
        with pytest.raises(ValueError, match=side):
            warm_frame_solve(state, frame._replace(**{field: facts}), ORACLE, CONFIG)
        with pytest.raises(ValueError, match=side):
            frame_state_from_cold(frame._replace(**{field: facts}), Matching({}))

    def test_operands_are_what_the_objects_say(self):
        taxis = [Taxi(4, Point(1.5, -2.0), seats=3)]
        requests = [PassengerRequest(9, Point(0.25, 0.5), Point(3.0, 4.0), passengers=2)]
        frame = frame_operands(
            taxis, requests, trip_km=np.array([5.0]), alpha=0.5, alpha_by_taxi={4: 2.0}
        )
        assert isinstance(frame, FrameOperands)
        assert frame.taxi_ids.tolist() == [4] and frame.request_ids.tolist() == [9]
        assert frame.taxi_facts.tolist() == [[1.5, -2.0, 3.0, 2.0]]
        assert frame.request_facts.tolist() == [[0.25, 0.5, 2.0, 5.0]]


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
