"""Property tests: the array sharing stack equals its scalar oracles.

Three rewrites of Algorithm 3's per-frame work are held to the scalar
code they replaced, kept in ``tests/oracles/``:

* the array sharing table (``build_sharing_table``) against the group ×
  taxi dict double loop (``sharing_table_reference``);
* the table-driven exhaustive route search (``feasible_shared_route``)
  against the scalar sequence loop (``scalar_shared_route``);
* the mask-driven group enumeration (``enumerate_feasible_groups``)
  against the ``itertools.combinations`` scan
  (``enumerate_groups_reference``): same groups in the same order, same
  ``FeasibilityStats``, same budget truncation;
* the bucketed, bitmask set packers (``greedy_set_packing``,
  ``local_search_packing``) against the frozenset scans
  (``greedy_packing_reference``, ``local_search_reference``).

Coordinates come partly from a coarse lattice, so duplicate and
collinear stops — and hence exact score and length ties — occur often.
Both the Euclidean oracle and the asymmetric one-way ring are drawn.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch.sharing import build_sharing_table
from repro.geometry import EuclideanDistance, Point
from repro.matching.arrays import PreferenceArrays
from repro.packing import enumerate_feasible_groups
from repro.packing.feasibility import GroupMemo
from repro.packing.set_packing import greedy_set_packing, local_search_packing
from repro.resilience import WorkBudget
from repro.routing.shared_route import build_ride_group, feasible_shared_route
from tests.oracles import (
    enumerate_groups_reference,
    greedy_packing_reference,
    local_search_reference,
    scalar_shared_route,
    sharing_scores_reference,
    sharing_table_reference,
)
from tests.support import TAXI_ID_BASE, oneway_ring

lattice = st.integers(min_value=0, max_value=3).map(float)
coordinate = st.one_of(
    lattice, st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
)
points = st.builds(Point, coordinate, coordinate)
oracles = st.sampled_from([EuclideanDistance(), oneway_ring()])


def requests_of(draw, count, *, max_passengers=3):
    return [
        PassengerRequest(
            j, draw(points), draw(points), passengers=draw(st.integers(1, max_passengers))
        )
        for j in range(count)
    ]


# -- sharing table -----------------------------------------------------------


@st.composite
def sharing_markets(draw):
    oracle = draw(oracles)
    taxis = [
        Taxi(TAXI_ID_BASE + i, draw(points), seats=draw(st.integers(1, 4)))
        for i in range(draw(st.integers(0, 5)))
    ]
    requests = requests_of(draw, draw(st.integers(0, 7)))
    # A random partition into units of one to three members.
    units = []
    rest = list(requests)
    while rest:
        size = min(len(rest), draw(st.integers(1, 3)))
        members, rest = rest[:size], rest[size:]
        units.append(build_ride_group(len(units), members, oracle))
    alpha_by_taxi = {
        t.taxi_id: draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        for t in taxis
        if draw(st.booleans())
    }
    return oracle, taxis, units, alpha_by_taxi


@settings(max_examples=150, deadline=None)
@given(sharing_markets(), st.data())
def test_array_table_equals_dict_oracle(market, data):
    oracle, taxis, units, alpha_by_taxi = market
    config = DispatchConfig(alpha=data.draw(st.sampled_from([0.0, 1.0, 1.5])))
    unbounded = sharing_scores_reference(taxis, units, oracle, config, alpha_by_taxi=alpha_by_taxi)
    # Thresholds set exactly at realized scores: the boundary pair is
    # kept on both sides (the threshold itself must be positive).
    thresholds = [(math.inf, math.inf)]
    positive = sorted(p for p, _ in unbounded.values() if p > 0.0)
    if positive:
        thresholds.append(
            (
                data.draw(st.sampled_from(positive)),
                data.draw(st.sampled_from(sorted(t for _, t in unbounded.values()))),
            )
        )
    for passenger_km, taxi_km in thresholds:
        bounded = DispatchConfig(
            alpha=config.alpha, passenger_threshold_km=passenger_km, taxi_threshold_km=taxi_km
        )
        reference = sharing_table_reference(
            taxis, units, oracle, bounded, alpha_by_taxi=alpha_by_taxi
        )
        candidate = build_sharing_table(taxis, units, oracle, bounded, alpha_by_taxi=alpha_by_taxi)
        assert candidate.equals(PreferenceArrays.from_table(reference))


# -- exhaustive route search -------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    oracles,
    st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(points, points), min_size=n, max_size=n)),
    st.one_of(st.none(), points),
    st.one_of(st.none(), st.sampled_from([0.0, 0.5, 2.0, 6.0])),
    st.data(),
)
def test_table_route_search_equals_scalar_search(oracle, stops, start, max_detour_km, data):
    # Member order need not follow id order: tie keys compare ids.
    ids = data.draw(st.permutations([3, 11, 25, 40][: len(stops)]))
    requests = [PassengerRequest(rid, s, d) for rid, (s, d) in zip(ids, stops)]
    expected = scalar_shared_route(requests, oracle, start=start, max_detour_km=max_detour_km)
    actual = feasible_shared_route(requests, oracle, start=start, max_detour_km=max_detour_km)
    assert actual == expected


def test_route_ties_break_on_the_smallest_key():
    # Four identical requests: every one of the 2520 orders has length
    # zero, so the key chain alone picks the route.
    oracle = EuclideanDistance()
    requests = [PassengerRequest(j, Point(1.0, 1.0), Point(1.0, 1.0)) for j in (4, 2, 9, 7)]
    expected = scalar_shared_route(requests, oracle)
    assert feasible_shared_route(requests, oracle) == expected
    assert [(s.request_id, s.is_pickup) for s in expected.stops[:2]] == [(2, True), (2, False)]


# -- group enumeration -------------------------------------------------------


@st.composite
def enumerations(draw):
    oracle = draw(oracles)
    requests = requests_of(draw, draw(st.integers(0, 8)), max_passengers=2)
    # Shuffled input: the enumeration sorts by id itself.
    requests = draw(st.permutations(requests))
    n = len(requests)
    total = n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
    kwargs = dict(
        max_passengers=draw(st.sampled_from([None, 2, 4])),
        assume_metric=draw(st.booleans()),
        pairing_radius_km=draw(st.sampled_from([None, 1.0, 3.0, 12.0])),
    )
    budget_nodes = draw(st.one_of(st.none(), st.integers(0, total + 1)))
    config = DispatchConfig(
        theta_km=draw(st.sampled_from([0.5, 2.0, 5.0])),
        max_group_size=draw(st.sampled_from([1, 2, 3, 3])),
    )
    return oracle, requests, config, kwargs, budget_nodes


def group_view(groups):
    return [
        (g.group_id, g.request_ids, g.route, g.route_length_km, g.onboard_distance_km,
         g.pickup_offset_km)
        for g in groups
    ]


@settings(max_examples=200, deadline=None)
@given(enumerations(), st.sampled_from(["none", "family", "hits"]))
def test_mask_enumeration_equals_combinations_scan(case, memo):
    oracle, requests, config, kwargs, budget_nodes = case
    cache, reference_cache = (None, None) if memo == "none" else (GroupMemo(), {})
    if cache is not None:
        # A warm memo: an earlier frame evaluated every other request.
        earlier = requests[::2]
        enumerate_feasible_groups(earlier, oracle, config, cache=cache, **kwargs)
        enumerate_groups_reference(earlier, oracle, config, cache=reference_cache, **kwargs)
        assert cache == reference_cache
        if memo == "hits":
            # No carried family: a full scan served by memo hits.
            cache.drop_family("memo-cleared")

    budget = WorkBudget(budget_nodes) if budget_nodes is not None else None
    reference_budget = WorkBudget(budget_nodes) if budget_nodes is not None else None
    groups, stats = enumerate_feasible_groups(
        requests, oracle, config, cache=cache, budget=budget, with_stats=True, **kwargs
    )
    expected, expected_stats = enumerate_groups_reference(
        requests, oracle, config, cache=reference_cache, budget=reference_budget,
        with_stats=True, **kwargs
    )
    assert group_view(groups) == group_view(expected)
    assert asdict(stats) == asdict(expected_stats)
    assert cache == reference_cache
    if budget is not None:
        assert budget.exhausted == reference_budget.exhausted
        if not stats.truncated:
            assert budget.nodes == reference_budget.nodes


def test_budget_truncates_mid_pairs_and_mid_triples_identically():
    oracle = EuclideanDistance()
    requests = [PassengerRequest(j, Point(0.05 * j, 0.0), Point(0.05 * j, 5.0)) for j in range(7)]
    config = DispatchConfig(theta_km=5.0, max_group_size=3)
    pairs, triples = 21, 35
    for nodes in (0, 5, pairs - 1, pairs, pairs + 7, pairs + triples - 1, pairs + triples):
        got = enumerate_feasible_groups(
            requests, oracle, config, budget=WorkBudget(nodes), with_stats=True,
            pairing_radius_km=0.2,
        )
        want = enumerate_groups_reference(
            requests, oracle, config, budget=WorkBudget(nodes), with_stats=True,
            pairing_radius_km=0.2,
        )
        assert group_view(got[0]) == group_view(want[0]), nodes
        assert asdict(got[1]) == asdict(want[1]), nodes


# -- set packing -------------------------------------------------------------


@st.composite
def set_systems(draw):
    """Candidate groups over a few requests: sizes 1-3, duplicates allowed,
    so conflicts, ties and multi-swap improvements all occur."""
    elements = draw(st.integers(2, 14))
    member = st.integers(0, elements - 1)
    return draw(st.lists(st.frozensets(member, min_size=1, max_size=3), max_size=40))


@settings(max_examples=300, deadline=None)
@given(set_systems(), st.integers(0, 3), st.one_of(st.none(), st.integers(0, 60)), st.data())
def test_set_packers_equal_frozenset_scans(sets, swap_out, budget_nodes, data):
    assert greedy_set_packing(sets) == greedy_packing_reference(sets)
    initial = None
    if data.draw(st.booleans()):
        # Any valid packing may seed the search: take disjoint sets in a
        # random order.
        initial, covered = [], set()
        for index in data.draw(st.permutations(range(len(sets)))):
            if covered.isdisjoint(sets[index]):
                initial.append(index)
                covered |= sets[index]
    budget = WorkBudget(budget_nodes) if budget_nodes is not None else None
    reference_budget = WorkBudget(budget_nodes) if budget_nodes is not None else None
    got = local_search_packing(sets, initial=initial, swap_out=swap_out, budget=budget)
    want = local_search_reference(
        sets, initial=initial, swap_out=swap_out, budget=reference_budget
    )
    assert got == want
    if budget is not None:
        assert budget.nodes == reference_budget.nodes
