"""Sharing preference orders (Section V-A).

After packing, every dispatch unit is a :class:`RideGroup` (leftover
requests become singleton groups, for which all formulas reduce to the
non-sharing ones — a point the paper makes explicitly):

* a group's (averaged) passenger score for taxi ``t_i`` is
  ``mean_j [ D_ck(t_i, r_j^s) + β·(D_ck(r_j^s, r_j^d) − D(r_j^s, r_j^d)) ]``
  with ``D_ck(t_i, r_j^s) = D(t_i, route_start) + pickup_offset_j``;
* the taxi's score for the group is
  ``D_ck(t_i) − (α+1)·Σ_j D(r_j^s, r_j^d)`` with
  ``D_ck(t_i) = D(t_i, route_start) + route_length``.

Acceptability mirrors the non-sharing table: seat feasibility plus the
two dummy thresholds.

:func:`build_sharing_table` builds the whole units × taxis market on
arrays and returns :class:`~repro.matching.arrays.PreferenceArrays`
through the same CSR packer as the non-sharing fast path
(:func:`~repro.matching.preferences.arrays_from_pairs`).  The approach
matrix ``D(t_i, route start)`` is one ``exact=True`` kernel call; each
unit's member terms (pickup offset, ``β·detour``), total trip, route
length and party size become vectors; the seat rule is one broadcast
mask.  The passenger score is accumulated member by member as
``(A + offset_k) + β·detour_k`` and then divided by the member count —
the scalar double loop's operations in its order — so every score, and
hence every preference order, is IEEE-identical to that loop (kept in
the test suite as the oracle).  Ties break by partner id.  The scalar
:func:`group_passenger_score` / :func:`group_taxi_score` remain the
per-pair definitions.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import PreferenceError
from repro.core.types import RideGroup, Taxi
from repro.geometry.batch import oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.matching.arrays import PreferenceArrays
from repro.matching.preferences import arrays_from_pairs

__all__ = ["build_sharing_table", "group_passenger_score", "group_taxi_score"]


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


def build_sharing_table(
    taxis: Sequence[Taxi],
    units: Sequence[RideGroup],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    alpha_by_taxi: Mapping[int, float] | None = None,
) -> PreferenceArrays:
    """The sharing market with ride groups as proposers and taxis as
    reviewers, as :class:`~repro.matching.arrays.PreferenceArrays`.

    Unit ids are the groups' ``group_id`` values and must be unique;
    proposer index ``g`` is position ``g`` in ``units``, reviewer index
    ``i`` position ``i`` in ``taxis``.  ``alpha_by_taxi`` mirrors the
    non-sharing extension: a per-driver fare coefficient (missing ids
    use ``config.alpha``).  Ties in score break by partner id.
    """
    config = config if config is not None else DispatchConfig()
    alpha = np.array(
        [(alpha_by_taxi or {}).get(t.taxi_id, config.alpha) for t in taxis], dtype=np.float64
    )
    for taxi, value in zip(taxis, alpha.tolist()):
        if value < 0.0:
            raise PreferenceError(f"taxi {taxi.taxi_id} has negative alpha {value}")
    unit_ids = np.array([g.group_id for g in units], dtype=np.int64)
    if len(np.unique(unit_ids)) != len(unit_ids):
        raise PreferenceError("duplicate group ids")
    taxi_ids = np.array([t.taxi_id for t in taxis], dtype=np.int64)
    if len(np.unique(taxi_ids)) != len(taxi_ids):
        raise PreferenceError("duplicate taxi ids")
    if not units or not taxis:
        no_pairs, no_scores = np.empty(0, dtype=np.intp), np.empty(0)
        return arrays_from_pairs(
            unit_ids, taxi_ids, rj=no_pairs, ti=no_pairs, pick=no_scores, driver=no_scores
        )

    # A[i, g] = D(taxi i, route start of g): taxis are the sources, as in
    # the scalar scores (asymmetric oracles distinguish the direction).
    approach = oracle_pairwise(
        oracle,
        sources=[t.location for t in taxis],
        targets=[g.route_start for g in units],
        exact=True,
    )
    # Member terms: (unit position, pickup offset, β·detour) of each
    # unit's k-th member, grouped by k.  Trip distances do not depend on
    # the taxi; total_trip sums them in member order.
    by_rank: list[list[tuple[int, float, float]]] = [[] for _ in range(max(g.size for g in units))]
    total_trip = np.empty(len(units))
    for gi, group in enumerate(units):
        trips = [request.trip_distance(oracle) for request in group.requests]
        total_trip[gi] = sum(trips)
        offsets, onboard = group.pickup_offset_km, group.onboard_distance_km
        for k, (request, trip) in enumerate(zip(group.requests, trips)):
            rid = request.request_id
            by_rank[k].append((gi, offsets[rid], config.beta * (onboard[rid] - trip)))
    size = np.array([g.size for g in units], dtype=np.int64)
    route_length = np.array([g.route_length_km for g in units], dtype=np.float64)
    party = np.array([g.total_passengers for g in units], dtype=np.int64)
    seats = np.array([t.seats for t in taxis], dtype=np.int64)

    # Passenger score: the sum over members of (A + offset_k) + β·detour_k,
    # accumulated member by member (the scalar order), over the size.
    total = np.zeros_like(approach)
    for terms in by_rank:
        column, offset, beta_detour = np.array(terms).T
        has = column.astype(np.intp)
        total[:, has] += (approach[:, has] + offset) + beta_detour
    passenger = total / size
    driver = (approach + route_length) - (alpha[:, None] + 1.0) * total_trip
    ok = (
        (party <= seats[:, None])
        & ~(passenger > config.passenger_threshold_km)
        & ~(driver > config.taxi_threshold_km)
    )
    ti, gi = np.nonzero(ok)
    return arrays_from_pairs(
        unit_ids, taxi_ids, rj=gi, ti=ti, pick=passenger[ti, gi], driver=driver[ti, gi]
    )
