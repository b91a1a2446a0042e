"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import replace

from repro.core.config import DispatchConfig
from repro.core.errors import PackingError, PreferenceError, RoutingError
from repro.core.types import PassengerRequest, RideGroup, RouteStop, Taxi
from repro.geometry import Point
from repro.geometry.batch import oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.matching import PreferenceTable
from repro.network import RoadNetwork
from repro.packing.feasibility import FeasibilityStats, group_is_feasible
from repro.packing.set_packing import PackingResult, _normalize, verify_packing
from repro.resilience.budget import WorkBudget
from repro.routing.shared_route import (
    MAX_EXHAUSTIVE_GROUP,
    SharedRoute,
    _sequence_table,
    build_ride_group,
)

__all__ = [
    "random_table",
    "oneway_ring",
    "TAXI_ID_BASE",
    "scalar_shared_route",
    "sharing_table_reference",
    "enumerate_groups_reference",
    "greedy_packing_reference",
    "local_search_reference",
]

TAXI_ID_BASE = 100


def random_table(
    rng: random.Random,
    n_proposers: int,
    n_reviewers: int,
    acceptance: float = 0.7,
) -> PreferenceTable:
    """A random preference market with random mutual acceptability.

    Proposer ids are 0..n−1; reviewer ids start at ``TAXI_ID_BASE`` so
    the two sides can never be confused in assertions.
    """
    proposers = list(range(n_proposers))
    reviewers = list(range(TAXI_ID_BASE, TAXI_ID_BASE + n_reviewers))
    pairs = [(p, r) for p in proposers for r in reviewers if rng.random() < acceptance]
    proposer_prefs = {}
    for p in proposers:
        acceptable = [r for (pp, r) in pairs if pp == p]
        rng.shuffle(acceptable)
        proposer_prefs[p] = tuple(acceptable)
    reviewer_prefs = {}
    for r in reviewers:
        acceptable = [p for (p, rr) in pairs if rr == r]
        rng.shuffle(acceptable)
        reviewer_prefs[r] = tuple(acceptable)
    return PreferenceTable(proposer_prefs=proposer_prefs, reviewer_prefs=reviewer_prefs)


def oneway_ring() -> RoadNetwork:
    """A 4-node one-way ring: D(u, v) and D(v, u) always differ."""
    network = RoadNetwork()
    corners = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 10.0), Point(0.0, 10.0)]
    for node_id, point in enumerate(corners):
        network.add_node(node_id, point)
    for u in range(4):
        network.add_edge(u, (u + 1) % 4, 10.0, oneway=True)
    return network


def scalar_shared_route(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    *,
    start: Point | None = None,
    max_detour_km: float | None = None,
) -> SharedRoute | None:
    """The scalar exhaustive route search: one dict of leg distances and
    one loop over the stop orders with the ``(length ± 1e-12, key)``
    tie-break chain.  The test oracle of
    :func:`repro.routing.shared_route.feasible_shared_route`."""
    n = len(requests)
    if n == 0:
        raise RoutingError("cannot route an empty group")
    if n > MAX_EXHAUSTIVE_GROUP:
        raise RoutingError(
            f"exhaustive routing supports groups of at most {MAX_EXHAUSTIVE_GROUP}, got {n}"
        )
    ids = [r.request_id for r in requests]
    if len(set(ids)) != n:
        raise RoutingError(f"duplicate request ids in group: {ids}")

    points: list[tuple[Point, Point]] = [(r.pickup, r.dropoff) for r in requests]

    # With at most 8 stops, memoizing the leg distances once beats
    # re-querying the oracle across the up-to-2520 candidate sequences.
    stop_points: list[Point] = [p for pair in points for p in pair]
    leg: dict[tuple[int, int], float] = {}
    for a in range(len(stop_points)):
        for b in range(len(stop_points)):
            if a != b:
                leg[(a, b)] = oracle.distance(stop_points[a], stop_points[b])
    start_leg: list[float] | None = None
    if start is not None:
        start_leg = [oracle.distance(start, p) for p in stop_points]
    direct = [leg[(2 * m, 2 * m + 1)] for m in range(n)]

    def stop_index(member: int, is_pickup: bool) -> int:
        return 2 * member + (0 if is_pickup else 1)

    best_length = math.inf
    best_sequence: tuple[tuple[int, bool], ...] | None = None
    best_key: tuple | None = None
    pickup_cum = [0.0] * n
    for sequence in _sequence_table(n).sequences:
        first = stop_index(*sequence[0])
        approach = 0.0 if start_leg is None else start_leg[first]
        cumulative = 0.0
        previous = first
        pickup_cum[sequence[0][0]] = 0.0
        detour_ok = True
        for member, is_pickup in sequence[1:]:
            index = stop_index(member, is_pickup)
            cumulative += leg[(previous, index)]
            previous = index
            if is_pickup:
                pickup_cum[member] = cumulative
            elif max_detour_km is not None:
                onboard = cumulative - pickup_cum[member]
                if onboard - direct[member] > max_detour_km + 1e-9:
                    detour_ok = False
                    break
        if not detour_ok:
            continue
        length = approach + cumulative
        key = tuple((ids[m], not p) for m, p in sequence)
        if length < best_length - 1e-12 or (
            abs(length - best_length) <= 1e-12 and (best_key is None or key < best_key)
        ):
            best_length = length
            best_sequence = sequence
            best_key = key

    if best_sequence is None:
        return None

    stops: list[RouteStop] = []
    cumulative = 0.0
    offsets_at: list[float] = []
    previous = None
    for member, is_pickup in best_sequence:
        point = points[member][0] if is_pickup else points[member][1]
        if previous is not None:
            cumulative += oracle.distance(previous, point)
        offsets_at.append(cumulative)
        stops.append(RouteStop(request_id=ids[member], is_pickup=is_pickup, point=point))
        previous = point

    pickup_offset: dict[int, float] = {}
    onboard: dict[int, float] = {}
    for stop, offset in zip(stops, offsets_at):
        if stop.is_pickup:
            pickup_offset[stop.request_id] = offset
        else:
            onboard[stop.request_id] = offset - pickup_offset[stop.request_id]

    route_length = offsets_at[-1] if start is None else best_length
    return SharedRoute(
        stops=tuple(stops),
        length_km=route_length,
        pickup_offset_km=pickup_offset,
        onboard_km=onboard,
    )



def sharing_table_reference(
    taxis: Sequence[Taxi],
    units: Sequence[RideGroup],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    alpha_by_taxi: Mapping[int, float] | None = None,
) -> PreferenceTable:
    """The group × taxi double loop over the sharing scores, as a dict
    table: the test oracle of
    :func:`repro.dispatch.sharing.preferences.build_sharing_table`."""
    config = config if config is not None else DispatchConfig()
    alphas = {
        taxi.taxi_id: (alpha_by_taxi or {}).get(taxi.taxi_id, config.alpha) for taxi in taxis
    }
    for taxi_id, alpha in alphas.items():
        if alpha < 0.0:
            raise PreferenceError(f"taxi {taxi_id} has negative alpha {alpha}")
    unit_ids = [g.group_id for g in units]
    if len(set(unit_ids)) != len(unit_ids):
        raise PreferenceError("duplicate group ids")
    taxi_ids = [t.taxi_id for t in taxis]
    if len(set(taxi_ids)) != len(taxi_ids):
        raise PreferenceError("duplicate taxi ids")

    proposer_scores: dict[tuple[int, int], float] = {}
    reviewer_scores: dict[tuple[int, int], float] = {}
    by_unit: dict[int, list[tuple[float, int]]] = {g.group_id: [] for g in units}
    by_taxi: dict[int, list[tuple[float, int]]] = {t.taxi_id: [] for t in taxis}

    if not units or not taxis:
        approach = None
    else:
        # One batched kernel call replaces the two scalar approach-distance
        # queries per (group, taxi) pair; exact=True keeps every score bit-
        # identical to group_passenger_score / group_taxi_score, whose
        # sources are taxi locations (D(taxi, route_start) — asymmetric
        # oracles distinguish the direction).
        approach = oracle_pairwise(
            oracle,
            sources=[t.location for t in taxis],
            targets=[g.route_start for g in units],
            exact=True,
        )

    for gi, group in enumerate(units):
        # Trip distances (and hence detours) do not depend on the taxi;
        # computing them once per group removes O(pairs·members) oracle
        # calls.  Summation order matches group.total_trip_distance.
        trips = [request.trip_distance(oracle) for request in group.requests]
        total_trip = sum(trips)
        member_terms = [
            (
                group.pickup_offset_km[request.request_id],
                config.beta * (group.onboard_distance_km[request.request_id] - trip),
            )
            for request, trip in zip(group.requests, trips)
        ]
        for ti, taxi in enumerate(taxis):
            if group.total_passengers > taxi.seats:
                continue
            assert approach is not None
            approach_km = float(approach[ti, gi])
            total = 0.0
            for offset, beta_detour in member_terms:
                total += approach_km + offset + beta_detour
            p_score = total / len(group.requests)
            if p_score > config.passenger_threshold_km:
                continue
            t_score = (approach_km + group.route_length_km) - (
                alphas[taxi.taxi_id] + 1.0
            ) * total_trip
            if t_score > config.taxi_threshold_km:
                continue
            proposer_scores[(group.group_id, taxi.taxi_id)] = p_score
            reviewer_scores[(group.group_id, taxi.taxi_id)] = t_score
            by_unit[group.group_id].append((p_score, taxi.taxi_id))
            by_taxi[taxi.taxi_id].append((t_score, group.group_id))

    return PreferenceTable(
        proposer_prefs={u: tuple(t for _, t in sorted(pairs)) for u, pairs in by_unit.items()},
        reviewer_prefs={t: tuple(u for _, u in sorted(pairs)) for t, pairs in by_taxi.items()},
        proposer_scores=proposer_scores,
        reviewer_scores=reviewer_scores,
        validate=False,
    )


def enumerate_groups_reference(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    max_passengers: int | None = 4,
    assume_metric: bool = True,
    pairing_radius_km: float | None = None,
    cache: dict[tuple[int, ...], RideGroup | None] | None = None,
    with_stats: bool = False,
    budget: WorkBudget | None = None,
) -> list[RideGroup] | tuple[list[RideGroup], FeasibilityStats]:
    """The ``itertools.combinations`` enumeration with one budget node per
    combination: the test oracle of
    :func:`repro.packing.feasibility.enumerate_feasible_groups`."""
    config = config if config is not None else DispatchConfig()
    stats = FeasibilityStats()
    ordered = sorted(requests, key=lambda r: r.request_id)
    groups: list[RideGroup] = []
    feasible_pairs: set[tuple[int, int]] = set()

    def evaluate(members: tuple[PassengerRequest, ...], is_pair: bool) -> None:
        key = tuple(r.request_id for r in members)
        if cache is not None and key in cache:
            cached = cache[key]
            if cached is not None:
                if is_pair:
                    feasible_pairs.add(key)
                groups.append(replace(cached, group_id=len(groups)))
            return
        if is_pair:
            stats.pairs_tested += 1
        else:
            stats.triples_tested += 1
        if group_is_feasible(members, oracle, config.theta_km, max_passengers=max_passengers):
            if is_pair:
                stats.pairs_feasible += 1
                feasible_pairs.add(key)
            else:
                stats.triples_feasible += 1
            group = build_ride_group(len(groups), members, oracle)
            groups.append(group)
            if cache is not None:
                cache[key] = replace(group, group_id=-1)
        elif cache is not None:
            cache[key] = None

    # The radius prefilter inspects every request pair; one batched
    # pickup-to-pickup matrix replaces O(|R|²) scalar oracle calls
    # (exact=True keeps the kept/skipped decisions identical).
    gap = None
    if pairing_radius_km is not None and len(ordered) >= 2 and config.max_group_size >= 2:
        pickups = [r.pickup for r in ordered]
        gap = oracle_pairwise(oracle, sources=pickups, targets=pickups, exact=True)

    if config.max_group_size >= 2:
        for (ia, a), (ib, b) in itertools.combinations(enumerate(ordered), 2):
            if budget is not None and not budget.spend():
                stats.truncated = True
                break
            if gap is not None and gap[ia, ib] > pairing_radius_km:
                continue
            evaluate((a, b), is_pair=True)

    if config.max_group_size >= 3 and not stats.truncated:
        for a, b, c in itertools.combinations(ordered, 3):
            if budget is not None and not budget.spend():
                stats.truncated = True
                break
            if assume_metric:
                pairs_ok = (
                    (a.request_id, b.request_id) in feasible_pairs
                    and (a.request_id, c.request_id) in feasible_pairs
                    and (b.request_id, c.request_id) in feasible_pairs
                )
                if not pairs_ok:
                    stats.triples_pruned += 1
                    continue
            evaluate((a, b, c), is_pair=False)

    if stats.truncated:
        stats.notes.append("group enumeration stopped by work budget")
    stats.groups = len(groups)
    if with_stats:
        return groups, stats
    return groups


def greedy_packing_reference(sets: Sequence[Iterable[int]]) -> PackingResult:
    """The set-comprehension greedy packer: the test oracle of
    :func:`repro.packing.set_packing.greedy_set_packing`."""
    normalized = _normalize(sets)
    # element -> indices of sets containing it
    by_element: dict[int, list[int]] = {}
    for index, s in enumerate(normalized):
        for element in s:
            by_element.setdefault(element, []).append(index)
    conflict = [
        len({other for element in s for other in by_element[element]} - {index})
        for index, s in enumerate(normalized)
    ]
    order = sorted(range(len(normalized)), key=lambda i: (conflict[i], len(normalized[i]), i))
    covered: set[int] = set()
    chosen: list[int] = []
    for index in order:
        if covered & normalized[index]:
            continue
        covered |= normalized[index]
        chosen.append(index)
    chosen.sort()
    return PackingResult(chosen=tuple(chosen), covered=frozenset(covered))


def local_search_reference(
    sets: Sequence[Iterable[int]],
    *,
    initial: Sequence[int] | None = None,
    swap_out: int = 2,
    max_rounds: int = 50,
    budget: WorkBudget | None = None,
) -> PackingResult:
    """The frozenset local search that rescans every set per swap probe:
    the test oracle of :func:`repro.packing.set_packing.local_search_packing`."""
    if swap_out < 0:
        raise PackingError(f"swap_out must be non-negative, got {swap_out}")
    normalized = _normalize(sets)
    chosen = set(initial) if initial is not None else set(greedy_packing_reference(sets).chosen)
    if not verify_packing(sets, sorted(chosen)):
        raise PackingError("initial selection is not a valid packing")
    truncated = False

    def covered_by(indices: Iterable[int]) -> set[int]:
        covered: set[int] = set()
        for index in indices:
            covered |= normalized[index]
        return covered

    for _ in range(max_rounds):
        if budget is not None and not budget.spend():
            truncated = True
            break
        improved = False
        covered = covered_by(chosen)

        # (0, 1)-swaps: free additions.
        for index in range(len(normalized)):
            if index not in chosen and not (normalized[index] & covered):
                chosen.add(index)
                covered |= normalized[index]
                improved = True
        if improved:
            continue

        # (p, p+1)-swaps.
        done = False
        for p in range(1, swap_out + 1):
            for removal in itertools.combinations(sorted(chosen), p):
                if budget is not None and not budget.spend():
                    truncated = True
                    done = True
                    break
                remaining = chosen - set(removal)
                base_cover = covered_by(remaining)
                candidates = [
                    i
                    for i in range(len(normalized))
                    if i not in remaining and not (normalized[i] & base_cover)
                ]
                if len(candidates) <= p:
                    continue
                addition = _find_disjoint_reference(normalized, candidates, p + 1)
                if addition is not None:
                    chosen = remaining | set(addition)
                    improved = True
                    done = True
                    break
            if done:
                break
        if truncated or not improved:
            break

    result = tuple(sorted(chosen))
    return PackingResult(
        chosen=result, covered=frozenset(covered_by(result)), truncated=truncated
    )


def _find_disjoint_reference(
    normalized: list[frozenset[int]], candidates: list[int], count: int
) -> tuple[int, ...] | None:
    """First (by index order) ``count`` pairwise-disjoint candidate sets."""

    def extend(start: int, taken: list[int], covered: frozenset[int]) -> tuple[int, ...] | None:
        if len(taken) == count:
            return tuple(taken)
        for pos in range(start, len(candidates)):
            index = candidates[pos]
            if normalized[index] & covered:
                continue
            found = extend(pos + 1, taken + [index], covered | normalized[index])
            if found is not None:
                return found
        return None

    return extend(0, [], frozenset())
