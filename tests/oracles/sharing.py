"""Scalar STD oracles: the sharing preference table and group enumeration.

The test oracles of
:func:`repro.dispatch.sharing.preferences.build_sharing_table` and
:func:`repro.packing.feasibility.enumerate_feasible_groups`, which
replaced these loops with array code that must agree with them bit for
bit, and the scalar per-pair score definitions
(:func:`group_passenger_score`, :func:`group_taxi_score`).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import replace

from repro.core.config import DispatchConfig
from repro.core.errors import PreferenceError
from repro.core.types import PassengerRequest, RideGroup, Taxi
from repro.geometry.batch import oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.matching import PreferenceTable
from repro.packing.feasibility import FeasibilityStats, group_is_feasible
from repro.resilience.budget import WorkBudget
from repro.routing.shared_route import build_ride_group
from tests.oracles.nonsharing_table import PairScores, table_from_scores

__all__ = [
    "sharing_table_reference",
    "sharing_scores_reference",
    "enumerate_groups_reference",
    "group_passenger_score",
    "group_taxi_score",
]


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
    scores = sharing_scores_reference(taxis, units, oracle, config, alpha_by_taxi=alpha_by_taxi)
    return table_from_scores([g.group_id for g in units], [t.taxi_id for t in taxis], scores)


def sharing_scores_reference(
    taxis: Sequence[Taxi],
    units: Sequence[RideGroup],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    alpha_by_taxi: Mapping[int, float] | None = None,
) -> PairScores:
    """Both sharing scores of every acceptable ``(group id, taxi id)``
    pair, by the group × taxi double loop."""
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

    scores: PairScores = {}

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
            scores[(group.group_id, taxi.taxi_id)] = (p_score, t_score)
    return scores


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


def group_passenger_score(
    taxi: Taxi, group: RideGroup, oracle: DistanceOracle, beta: float
) -> float:
    """Mean member dissatisfaction of being served by ``taxi``."""
    approach = oracle.distance(taxi.location, group.route_start)
    total = 0.0
    for request in group.requests:
        offset = group.pickup_offset_km[request.request_id]
        detour = group.onboard_distance_km[request.request_id] - request.trip_distance(oracle)
        total += approach + offset + beta * detour
    return total / len(group.requests)


def group_taxi_score(taxi: Taxi, group: RideGroup, oracle: DistanceOracle, alpha: float) -> float:
    """The driver's expense-minus-payoff score for serving ``group``."""
    total_drive = oracle.distance(taxi.location, group.route_start) + group.route_length_km
    return total_drive - (alpha + 1.0) * group.total_trip_distance(oracle)
