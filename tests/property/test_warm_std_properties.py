"""Property tests: warm sharing frames equal cold ones under churn.

STD-P, STD-T and ILP carry request-side state across frames (the group
memo's last family and packing), and STD also the units and taxis its
last matching left unmatched.  A dispatcher that runs a frame sequence
warm must ship exactly the schedules of one whose carried state is
dropped (``reset_warm_state()``) before every frame.

Frames churn the way the engine churns them: matched requests and taxis
leave, some requests expire and some taxis go busy, new requests arrive
and taxis come back as new snapshot objects (sometimes under an old
id), and retained ones are re-presented as the same objects.  Now and
then a schedule is not executed, so matched units and taxis reappear
next to changes.  Points sit on a half-kilometre lattice and θ and both
dummy thresholds are lattice distances, so detours, scores and route
lengths tie exactly at their bounds.  Both the Euclidean oracle and the asymmetric one-way
ring are drawn, and so are frames with no taxis or no requests.

At the packing level, a node budget that trips part-way must stop the
warm and the cold enumeration and packer at the same subset.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch.sharing import STDDispatcher, pack_requests
from repro.dispatch.sharing.ilp import ILPDispatcher
from repro.geometry import EuclideanDistance, Point
from repro.packing import enumerate_feasible_groups
from repro.packing.feasibility import GroupMemo
from repro.resilience import WorkBudget
from tests.support import enumerate_groups_reference, oneway_ring

half_km = st.integers(min_value=0, max_value=8).map(lambda k: 0.5 * k)
points = st.builds(Point, half_km, half_km)
oracles = st.sampled_from([EuclideanDistance(), oneway_ring()])
#: θ and the dummy thresholds are lattice distances, so ties at the
#: bounds happen.
configs = st.builds(
    DispatchConfig,
    alpha=st.sampled_from([0.0, 1.0]),
    beta=st.sampled_from([0.5, 1.0]),
    theta_km=st.sampled_from([0.5, 1.0, 2.0]),
    max_group_size=st.sampled_from([2, 3]),
    passenger_threshold_km=st.sampled_from([1.0, 2.0, 4.0]),
    taxi_threshold_km=st.sampled_from([-1.0, 0.0, 1.0, 3.0]),
)

DISPATCHERS = {
    "STD-P": lambda oracle, config: STDDispatcher(
        oracle, config, optimize_for="passenger", pairing_radius_km=2.0
    ),
    "STD-T": lambda oracle, config: STDDispatcher(
        oracle, config, optimize_for="taxi", packer="greedy"
    ),
    "ILP": lambda oracle, config: ILPDispatcher(oracle, config, pairing_radius_km=2.0),
}


def schedule_rows(schedule):
    return [(a.taxi_id, a.request_ids, a.stops) for a in schedule.assignments]


class Churn:
    """The engine-like frame sequence both dispatchers are shown."""

    def __init__(self, draw):
        self.draw = draw
        self.next_request = 0
        self.queue: list[PassengerRequest] = []
        self.idle: list[Taxi] = []

    def arrivals(self, count):
        for _ in range(count):
            self.queue.append(
                PassengerRequest(
                    self.next_request,
                    self.draw(points),
                    self.draw(points),
                    passengers=self.draw(st.integers(1, 2)),
                )
            )
            self.next_request += 1

    def returns(self, count):
        held = {t.taxi_id for t in self.idle}
        for _ in range(count):
            taxi_id = self.draw(st.integers(0, 7))
            if taxi_id not in held:
                held.add(taxi_id)
                self.idle.append(
                    Taxi(taxi_id, self.draw(points), seats=self.draw(st.integers(1, 4)))
                )

    def frame(self):
        self.arrivals(self.draw(st.integers(0, 4)))
        self.returns(self.draw(st.integers(0, 3)))
        return list(self.idle), list(self.queue)

    def settle(self, schedule):
        served = {rid for a in schedule.assignments for rid in a.request_ids}
        busy = {a.taxi_id for a in schedule.assignments}
        if not self.draw(st.integers(0, 3)):
            served, busy = set(), set()  # the schedule was not executed
        gone = self.draw(st.sets(st.integers(0, self.next_request), max_size=2))
        self.queue = [r for r in self.queue if r.request_id not in served | gone]
        away = self.draw(st.sets(st.integers(0, 7), max_size=1))
        self.idle = [t for t in self.idle if t.taxi_id not in busy | away]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(DISPATCHERS)),
    oracle=oracles,
    config=configs,
    frames=st.integers(2, 7),
)
def test_warm_frames_equal_per_frame_cold_frames(data, name, oracle, config, frames):
    warm = DISPATCHERS[name](oracle, config)
    cold = DISPATCHERS[name](oracle, config)
    warm.reset_warm_state(counters=True)
    cold.reset_warm_state(counters=True)
    churn = Churn(data.draw)
    for _ in range(frames):
        taxis, requests = churn.frame()
        cold.reset_warm_state()
        expected = cold.dispatch(taxis, requests)
        shipped = warm.dispatch(taxis, requests)
        assert schedule_rows(shipped) == schedule_rows(expected)
        churn.settle(shipped)
    if isinstance(warm, STDDispatcher):
        counts = warm.run_telemetry()
        fallbacks = sum(v for k, v in counts.items() if k.startswith("warm_fallback_"))
        assert fallbacks == counts.get("cold_frames", 0)
        assert cold.run_telemetry().get("warm_frames", 0) == 0


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    oracle=oracles,
    config=configs,
    packer=st.sampled_from(["local", "greedy", "exact"]),
    frames=st.integers(2, 6),
)
def test_warm_packing_equals_cold_under_node_budgets(data, oracle, config, packer, frames):
    warm_memo, cold_memo = GroupMemo(), GroupMemo()
    churn = Churn(data.draw)
    for _ in range(frames):
        churn.arrivals(data.draw(st.integers(0, 4)))
        batch = sorted(churn.queue, key=lambda r: r.request_id)
        seats = data.draw(st.sampled_from([2, 4]))
        limit = data.draw(st.one_of(st.none(), st.integers(0, 40)))
        spent = data.draw(st.integers(0, 5))
        units = []
        nodes = []
        for memo in (cold_memo, warm_memo):
            if memo is cold_memo:
                memo.drop_family("ladder")
            budget = None if limit is None else WorkBudget(max_nodes=limit)
            if budget is not None:
                budget.spend(spent)
            units.append(
                pack_requests(
                    batch,
                    oracle,
                    config,
                    packer=packer,
                    max_passengers=seats,
                    pairing_radius_km=2.0,
                    cache=memo,
                    budget=budget,
                )
            )
            nodes.append(None if budget is None else budget.nodes)
        assert units[1] == units[0]
        assert nodes[1] == nodes[0]
        assert dict(warm_memo) == dict(cold_memo)
        # Units leave once served; some requests also expire.
        packed = {rid for unit in units[0] if unit.size > 1 for rid in unit.request_ids}
        gone = set(data.draw(st.lists(st.sampled_from(batch), max_size=2))) if batch else set()
        churn.queue = [
            r for r in churn.queue if r.request_id not in packed and r not in gone
        ]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), oracle=oracles, config=configs, frames=st.integers(2, 5))
def test_warm_enumeration_reports_the_full_scans_stats(data, oracle, config, frames):
    warm_memo, cold_memo = GroupMemo(), GroupMemo()
    churn = Churn(data.draw)
    for _ in range(frames):
        churn.arrivals(data.draw(st.integers(0, 4)))
        cold_memo.drop_family("ladder")
        results = [
            enumerate_feasible_groups(
                churn.queue, oracle, config, max_passengers=4, cache=memo, with_stats=True
            )
            for memo in (cold_memo, warm_memo)
        ]
        # Cheap comparisons first: a failing example then reports (and
        # shrinks) on a stats tuple, not on a diff of two group lists.
        (cold_groups, cold_stats), (warm_groups, warm_stats) = results
        assert warm_stats == cold_stats
        assert warm_memo.keys() == cold_memo.keys()
        assert warm_groups == cold_groups
        gone = data.draw(st.sets(st.integers(0, churn.next_request), max_size=3))
        churn.queue = [r for r in churn.queue if r.request_id not in gone]
        warm_memo.retain({r.request_id for r in churn.queue})
        cold_memo.retain({r.request_id for r in churn.queue})


#: Points anywhere on the one-way ring's square: pickups snap to
#: different corners, so ``D(a, b)`` and ``D(b, a)`` differ.
ring_km = st.integers(min_value=0, max_value=20).map(lambda k: 0.5 * k)
ring_points = st.builds(Point, ring_km, ring_km)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), config=configs, frames=st.integers(2, 5))
def test_radius_prefilter_reads_one_way_gaps_in_pickup_order(data, config, frames):
    # A 20 km radius admits many ring pairs one way only: a prefilter
    # that read a gap against the pickup order would test a different
    # set of pairs than the combinations scan, warm or cold.
    oracle = oneway_ring()
    warm_memo, cold_memo = GroupMemo(), GroupMemo()
    queue: list[PassengerRequest] = []
    next_id = 0
    for _ in range(frames):
        for _ in range(data.draw(st.integers(0, 4))):
            queue.append(
                PassengerRequest(next_id, data.draw(ring_points), data.draw(ring_points))
            )
            next_id += 1
        cold_memo.drop_family("ladder")
        results = [
            enumerate_feasible_groups(
                queue, oracle, config, pairing_radius_km=20.0, cache=memo, with_stats=True
            )
            for memo in (cold_memo, warm_memo)
        ]
        (cold_groups, cold_stats), (warm_groups, warm_stats) = results
        assert warm_stats == cold_stats
        assert warm_memo.keys() == cold_memo.keys()
        assert warm_groups == cold_groups
        fresh, fresh_stats = enumerate_feasible_groups(
            queue, oracle, config, pairing_radius_km=20.0, with_stats=True
        )
        expected, expected_stats = enumerate_groups_reference(
            queue, oracle, config, pairing_radius_km=20.0, with_stats=True
        )
        assert fresh_stats == expected_stats
        assert [g.request_ids for g in fresh] == [g.request_ids for g in expected]
        gone = data.draw(st.sets(st.sampled_from(queue), max_size=3)) if queue else set()
        queue = [r for r in queue if r not in gone]
        for memo in (warm_memo, cold_memo):
            memo.retain({r.request_id for r in queue})


def test_a_retained_taxi_presented_as_a_new_object_is_rescored():
    # Equal value, different object: the taxi is an entrant, so its row
    # is scored again instead of being trusted as settled.
    oracle = EuclideanDistance()
    config = DispatchConfig(passenger_threshold_km=3.0, taxi_threshold_km=10.0)
    dispatcher = STDDispatcher(oracle, config)
    dispatcher.reset_warm_state(counters=True)
    far = Taxi(1, Point(20.0, 20.0))
    request = PassengerRequest(0, Point(0.0, 0.0), Point(1.0, 0.0))
    assert not dispatcher.dispatch([far], [request]).assignments
    near = replace(far, location=Point(0.5, 0.0))
    assert dispatcher.dispatch([near], [request]).assignments
    counts = dispatcher.run_telemetry()
    assert counts["warm_frames"] == 1
    assert counts["pairs_scored_warm"] == counts["full_pairs_warm"] == 1


def test_entities_matched_last_frame_are_scored_again():
    # Only pairs the last matching left *both* unmatched are skipped.  A
    # taxi whose unit vanished unserved, and a unit whose taxi did, must
    # meet the partner they were not matched to before.
    oracle = EuclideanDistance()
    config = DispatchConfig(passenger_threshold_km=5.0, taxi_threshold_km=10.0)
    near, far = PassengerRequest(0, Point(0.0, 0.0), Point(9.0, 0.0)), PassengerRequest(
        1, Point(3.0, 0.0), Point(9.0, 3.0)
    )
    taxi, spare = Taxi(1, Point(0.0, 0.0)), Taxi(2, Point(4.0, 0.0))
    for frames in (
        # The taxi's unit leaves unserved; the taxi stays.
        ([([taxi], [near, far]), ([taxi], [far])]),
        # The unit's taxi leaves; the unit stays.
        ([([taxi, spare], [near]), ([spare], [near])]),
    ):
        warm, cold = STDDispatcher(oracle, config), STDDispatcher(oracle, config)
        for taxis, requests in frames:
            cold.reset_warm_state()
            expected = schedule_rows(cold.dispatch(taxis, requests))
            assert schedule_rows(warm.dispatch(taxis, requests)) == expected
        assert expected
