"""Unit tests for Algorithm 3 (STD-P / STD-T sharing dispatch)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.core.errors import WARM_FALLBACK_REASONS
from repro.dispatch import std_p, std_t
from repro.dispatch.sharing import STDDispatcher, build_sharing_table, pack_requests
from repro.dispatch.sharing.std import clip_batch
from repro.experiments import (
    ExperimentScale,
    build_workload,
    city_simulation_config,
    make_dispatcher,
)
from repro.geometry import EuclideanDistance, Point
from repro.matching import Matching, is_stable
from repro.packing.feasibility import GroupMemo
from repro.resilience import WorkBudget
from repro.simulation import Simulator
from repro.trace.profiles import nyc_profile
from tests.oracles import sharing_table_reference


@pytest.fixture()
def oracle():
    return EuclideanDistance()


def request(rid, sx, sy, dx, dy, passengers=1):
    return PassengerRequest(rid, Point(sx, sy), Point(dx, dy), passengers=passengers)


def random_frame(seed, n_taxis=6, n_requests=10):
    rng = np.random.default_rng(seed)
    taxis = [Taxi(i, Point(*rng.normal(0, 3, 2))) for i in range(n_taxis)]
    requests = [
        PassengerRequest(j, Point(*rng.normal(0, 3, 2)), Point(*rng.normal(0, 3, 2)))
        for j in range(n_requests)
    ]
    return taxis, requests


class TestPackRequests:
    def test_all_requests_covered_exactly_once(self, oracle):
        _, requests = random_frame(0)
        units = pack_requests(requests, oracle, DispatchConfig())
        covered = [rid for g in units for rid in g.request_ids]
        assert sorted(covered) == sorted(r.request_id for r in requests)

    def test_nested_trips_get_packed(self, oracle):
        requests = [request(1, 0, 0, 6, 0), request(2, 1, 0, 5, 0), request(3, 50, 50, 55, 50)]
        units = pack_requests(requests, oracle, DispatchConfig(theta_km=0.5))
        sizes = sorted(g.size for g in units)
        assert sizes == [1, 2]

    def test_unknown_packer_rejected(self, oracle):
        with pytest.raises(Exception):
            pack_requests([], oracle, DispatchConfig(), packer="nope")

    def test_exact_packer_on_small_input(self, oracle):
        requests = [request(i, 0.1 * i, 0, 5, 0) for i in range(1, 6)]
        units = pack_requests(requests, oracle, DispatchConfig(), packer="exact")
        covered = [rid for g in units for rid in g.request_ids]
        assert sorted(covered) == [1, 2, 3, 4, 5]

    def test_group_ids_unique_and_consecutive(self, oracle):
        _, requests = random_frame(1)
        units = pack_requests(requests, oracle, DispatchConfig())
        assert [g.group_id for g in units] == list(range(len(units)))


class TestClipBatch:
    def test_auto_bound_scales_with_fleet(self):
        requests = [request(i, 0, 0, 1, 0) for i in range(200)]
        taxis = [Taxi(i, Point(0, 0)) for i in range(3)]
        config = DispatchConfig(max_group_size=3)
        batch = clip_batch(requests, taxis, config, None)
        assert len(batch) == 3 * 3 + 8 * 3
        # Oldest requests are kept.
        assert [r.request_id for r in batch] == list(range(len(batch)))

    def test_explicit_bound(self):
        requests = [request(i, 0, 0, 1, 0) for i in range(10)]
        batch = clip_batch(requests, [Taxi(0, Point(0, 0))], DispatchConfig(), 4)
        assert len(batch) == 4

    def test_large_bound_disables_clipping(self):
        requests = [request(i, 0, 0, 1, 0) for i in range(10)]
        batch = clip_batch(requests, [], DispatchConfig(), 10_000)
        assert len(batch) == 10


class TestSharingTable:
    def test_singleton_scores_reduce_to_nonsharing(self, oracle):
        # The paper notes the sharing formulas collapse to the non-sharing
        # ones for |c_k| = 1.
        taxis = [Taxi(0, Point(0, 0))]
        r = request(1, 3, 4, 3, 10)  # pickup 5 km, trip 6 km
        units = pack_requests([r], oracle, DispatchConfig())
        reference = sharing_table_reference(taxis, units, oracle, DispatchConfig())
        assert reference.proposer_scores[(0, 0)] == pytest.approx(5.0)
        assert reference.reviewer_scores[(0, 0)] == pytest.approx(5.0 - 6.0)
        table = build_sharing_table(taxis, units, oracle, DispatchConfig()).to_table()
        assert table.proposer_prefs == {0: (0,)}
        assert table.reviewer_prefs == {0: (0,)}

    def test_seat_capacity_excludes_groups(self, oracle):
        taxis = [Taxi(0, Point(0, 0), seats=2)]
        requests = [
            request(1, 0, 0, 4, 0, passengers=2),
            request(2, 1, 0, 3, 0, passengers=2),
        ]
        units = pack_requests(requests, oracle, DispatchConfig(), max_passengers=4)
        table = build_sharing_table(taxis, units, oracle, DispatchConfig()).to_table()
        for unit in units:
            if unit.total_passengers > 2:
                assert table.proposer_prefs[unit.group_id] == ()


class TestSTDDispatcher:
    @pytest.mark.parametrize("factory", [std_p, std_t])
    def test_valid_schedules(self, oracle, factory):
        for seed in range(6):
            taxis, requests = random_frame(seed)
            schedule = factory(oracle, DispatchConfig()).dispatch(taxis, requests)
            schedule.validate(taxis, requests)

    def test_stage_two_matching_is_stable_on_units(self, oracle):
        taxis, requests = random_frame(3)
        config = DispatchConfig(passenger_threshold_km=10.0, taxi_threshold_km=10.0)
        dispatcher = std_p(oracle, config)
        schedule = dispatcher.dispatch(taxis, requests)
        # Rebuild the unit market the dispatcher saw and check stability
        # of the produced unit-taxi matching.
        max_seats = max(t.seats for t in taxis)
        units = pack_requests(requests, oracle, config, max_passengers=max_seats)
        table = build_sharing_table(taxis, units, oracle, config).to_table()
        unit_by_members = {g.request_ids: g.group_id for g in units}
        pairs = {}
        for assignment in schedule.assignments:
            unit_id = unit_by_members[assignment.request_ids]
            pairs[unit_id] = assignment.taxi_id
        assert is_stable(table, Matching(pairs))

    def test_groups_respect_theta(self, oracle):
        taxis, requests = random_frame(4)
        theta = 1.0
        config = DispatchConfig(theta_km=theta)
        schedule = std_p(oracle, config).dispatch(taxis, requests)
        request_by_id = {r.request_id: r for r in requests}
        for assignment in schedule.assignments:
            if len(assignment.request_ids) == 1:
                continue
            # Walk the route and check each member's onboard excess.
            cumulative = 0.0
            previous = None
            pickup_at = {}
            for stop in assignment.stops:
                if previous is not None:
                    cumulative += oracle.distance(previous, stop.point)
                previous = stop.point
                if stop.is_pickup:
                    pickup_at[stop.request_id] = cumulative
                else:
                    onboard = cumulative - pickup_at[stop.request_id]
                    direct = request_by_id[stop.request_id].trip_distance(oracle)
                    assert onboard - direct <= theta + 1e-6

    def test_invalid_mode_rejected(self, oracle):
        with pytest.raises(ValueError):
            STDDispatcher(oracle, optimize_for="company")

    def test_names(self, oracle):
        assert std_p(oracle).name == "STD-P"
        assert std_t(oracle).name == "STD-T"

    def test_empty_inputs(self, oracle):
        dispatcher = std_p(oracle)
        assert dispatcher.dispatch([], []).assignments == []


class TestPaperExactPath:
    def test_unclipped_unpruned_enumeration_on_small_frame(self, oracle):
        # The paper's literal semantics: no batch clipping, no pairing
        # radius, no metric pruning.  On a small frame the engineered
        # defaults must serve the same requests with valid schedules.
        taxis, requests = random_frame(7, n_taxis=4, n_requests=8)
        config = DispatchConfig()
        exact = STDDispatcher(
            oracle, config, packer="exact", pairing_radius_km=None, max_batch=10**9
        )
        schedule = exact.dispatch(taxis, requests)
        schedule.validate(taxis, requests)
        default = std_p(oracle, config).dispatch(taxis, requests)
        assert schedule.served_request_ids == default.served_request_ids

    def test_exact_packer_never_packs_fewer_groups(self, oracle):
        from repro.dispatch.sharing import pack_requests

        _, requests = random_frame(8, n_requests=8)
        config = DispatchConfig()
        exact_units = pack_requests(requests, oracle, config, packer="exact")
        local_units = pack_requests(requests, oracle, config, packer="local")
        exact_groups = sum(1 for g in exact_units if g.size > 1)
        local_groups = sum(1 for g in local_units if g.size > 1)
        assert exact_groups >= local_groups


class TestGroupMemoLifetime:
    """The cross-frame group memo is keyed by request ids, which only
    identify requests within one run: it must not outlive the run."""

    @staticmethod
    def trace(seed, hours):
        profile = nyc_profile()
        profile = replace(profile, n_taxis=round(profile.n_taxis * 2.0))
        sim_config = city_simulation_config(profile.scaled(0.05))
        fleet, requests = build_workload(
            profile, ExperimentScale(factor=0.05, seed=seed, hours=hours)
        )
        return sim_config, fleet, requests

    @pytest.mark.parametrize(
        "algorithm,hours", [("STD-P", (17.0, 18.0)), ("ILP", (17.0, 17.25))]
    )
    def test_reused_dispatcher_equals_fresh_on_second_trace(self, oracle, algorithm, hours):
        sim_config, first_fleet, first = self.trace(1, hours)
        _, fleet, second = self.trace(2, hours)
        assert {r.request_id for r in first} & {r.request_id for r in second}
        reused = make_dispatcher(algorithm, oracle, sim_config.dispatch)
        Simulator(reused, oracle, sim_config).run(first_fleet, first)
        again = Simulator(reused, oracle, sim_config).run(fleet, second)
        fresh = Simulator(
            make_dispatcher(algorithm, oracle, sim_config.dispatch), oracle, sim_config
        ).run(fleet, second)
        assert again.assignments == fresh.assignments
        assert again.summary() == fresh.summary()

    @pytest.mark.parametrize("algorithm", ["STD-P", "ILP"])
    def test_memo_holds_only_the_live_queue(self, oracle, algorithm):
        # Entries naming a request that left the queue are evicted each
        # frame, so the memo tracks the queue, not the run.
        sim_config, fleet, requests = self.trace(1, (17.0, 18.0))
        dispatcher = make_dispatcher(algorithm, oracle, sim_config.dispatch)
        honest = dispatcher.dispatch
        dead_keys = []

        def dispatch(taxis, batch):
            schedule = honest(taxis, batch)
            live = {r.request_id for r in batch}
            dead_keys.extend(
                key for key in dispatcher._group_cache if not live.issuperset(key)
            )
            return schedule

        dispatcher.dispatch = dispatch
        result = Simulator(dispatcher, oracle, sim_config).run(fleet, requests)
        assert result.assignments
        assert dead_keys == []
        assert len(dispatcher._group_cache) < len(requests)

    @pytest.mark.parametrize("first_seats", [2, 6])
    def test_a_memoized_verdict_holds_at_every_seat_bound(self, oracle, first_seats):
        # Two 2-rider parties that share well.  A frame seated at two
        # rejects their group, one seated at six accepts it; neither
        # verdict may carry over to a frame seated at four, which ships
        # the group exactly when a fresh dispatcher does.
        requests = [
            request(0, 0.0, 0.0, 6.0, 0.0, passengers=2),
            request(1, 0.2, 0.0, 6.0, 0.2, passengers=2),
        ]
        seated = [Taxi(8, Point(0.5, 0.0), seats=4)]
        reused = STDDispatcher(oracle, DispatchConfig())
        reused.dispatch([Taxi(7, Point(0.5, 0.0), seats=first_seats)], requests)
        shipped = [a.request_ids for a in reused.dispatch(seated, requests).assignments]
        fresh = STDDispatcher(oracle, DispatchConfig()).dispatch(seated, requests)
        assert shipped == [a.request_ids for a in fresh.assignments] == [(0, 1)]
        narrow = [Taxi(9, Point(0.5, 0.0), seats=2)]
        shipped = [a.request_ids for a in reused.dispatch(narrow, requests).assignments]
        fresh = STDDispatcher(oracle, DispatchConfig()).dispatch(narrow, requests)
        assert shipped == [a.request_ids for a in fresh.assignments] == [(1,)]


class TestWarmFrames:
    """Every cold sharing frame names its reason; warm frames reuse the
    carried family and market."""

    def test_cold_frames_count_their_reason(self, oracle):
        taxis, requests = random_frame(3)
        dispatcher = STDDispatcher(oracle, DispatchConfig())
        dispatcher.reset_warm_state(counters=True)
        dispatcher.dispatch(taxis, requests)  # run-start
        dispatcher.dispatch(taxis, requests)  # warm
        dispatcher.reset_warm_state()
        dispatcher.dispatch(taxis, requests)  # ladder
        dispatcher.dispatch(taxis + [Taxi(99, Point(0.0, 0.0), seats=6)], requests)
        dispatcher._group_cache.clear()
        dispatcher.dispatch(taxis, requests)  # memo-cleared
        counts = dispatcher.run_telemetry()
        assert counts["warm_frames"] == 1
        assert counts["cold_frames"] == 4
        for reason in ("run-start", "ladder", "max-passengers", "memo-cleared"):
            assert counts[f"warm_fallback_{reason}"] == 1
            assert reason in WARM_FALLBACK_REASONS

    def test_a_budget_that_would_trip_scans_in_full(self, oracle):
        _, requests = random_frame(4, n_requests=8)
        memo = GroupMemo()
        pack_requests(requests, oracle, DispatchConfig(), cache=memo)
        assert memo.last_fallback == "run-start"
        pack_requests(requests, oracle, DispatchConfig(), cache=memo, budget=WorkBudget(10_000))
        assert memo.last_fallback is None
        tight = WorkBudget(max_nodes=5)
        pack_requests(requests, oracle, DispatchConfig(), cache=memo, budget=tight)
        assert memo.last_fallback == "budget" and tight.exhausted
        assert memo.family is None and memo.cold_reason == "budget"
        assert "budget" in WARM_FALLBACK_REASONS

    def test_settled_market_skips_the_scored_block(self, oracle):
        # The same frame twice: every unit and taxi the first matching
        # left unmatched is settled, so the second frame scores only the
        # rows and columns of what it matched.
        taxis, requests = random_frame(0, n_taxis=8, n_requests=8)
        dispatcher = STDDispatcher(oracle, DispatchConfig(passenger_threshold_km=3.0))
        first = dispatcher.dispatch(taxis, requests)
        again = dispatcher.dispatch(taxis, requests)
        assert first.assignments
        assert [a.request_ids for a in again.assignments] == [
            a.request_ids for a in first.assignments
        ]
        counts = dispatcher.run_telemetry()
        assert counts["warm_frames"] == 1
        assert 0 < counts["pairs_scored_warm"] < counts["full_pairs_warm"]
