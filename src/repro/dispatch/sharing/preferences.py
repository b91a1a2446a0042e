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

:func:`build_sharing_table` scores the units × taxis market on arrays
and returns :class:`~repro.matching.arrays.PreferenceArrays` through
the same CSR packer as the non-sharing fast path
(:func:`~repro.matching.preferences.arrays_from_pairs`).  The cells to
score are index vectors (every cell, or only the unsettled strips of a
warm frame); each unit's facts and member terms (pickup offset,
``β·detour``) form one row and each taxi's one row, gathered once per
cell, and the approach distances ``D(t_i, route start)`` are one
``exact=True`` kernel call.  The passenger score is accumulated member
by member as ``(A + offset_k) + β·detour_k`` and then divided by the
member count — the scalar double loop's operations in its order — so
every score, and hence every preference order, is IEEE-identical to
that loop (kept in the test suite as the oracle).  Ties break by
partner id.  The scalar :func:`group_passenger_score` /
:func:`group_taxi_score` remain the per-pair definitions.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import PreferenceError
from repro.core.types import RideGroup, Taxi
from repro.geometry.batch import oracle_paired
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
    terms: dict[tuple[int, ...], tuple[float, ...]] | None = None,
    settled: tuple[np.ndarray, np.ndarray] | None = None,
) -> PreferenceArrays:
    """The sharing market with ride groups as proposers and taxis as
    reviewers, as :class:`~repro.matching.arrays.PreferenceArrays`.

    Unit ids are the groups' ``group_id`` values and must be unique;
    proposer index ``g`` is position ``g`` in ``units``, reviewer index
    ``i`` position ``i`` in ``taxis``.  ``alpha_by_taxi`` mirrors the
    non-sharing extension: a per-driver fare coefficient (missing ids
    use ``config.alpha``).  Ties in score break by partner id.

    ``terms`` memoizes each unit's member vectors (total trip, pickup
    offsets, β·detours) by member-id key, for one oracle and β.
    ``settled`` is a pair of boolean masks over ``units`` and ``taxis``
    whose flagged units and flagged taxis are known to be mutually
    unacceptable; that block is not scored, only the strips of unflagged
    units and unflagged taxis.  Every scored cell is computed as the
    full build computes it, so the arrays are identical whenever the
    claim holds.
    """
    config = config if config is not None else DispatchConfig()
    alphas = [(alpha_by_taxi or {}).get(t.taxi_id, config.alpha) for t in taxis]
    for taxi, value in zip(taxis, alphas):
        if value < 0.0:
            raise PreferenceError(f"taxi {taxi.taxi_id} has negative alpha {value}")
    unit_id_list = [g.group_id for g in units]
    if len(set(unit_id_list)) != len(unit_id_list):
        raise PreferenceError("duplicate group ids")
    taxi_id_list = [t.taxi_id for t in taxis]
    if len(set(taxi_id_list)) != len(taxi_id_list):
        raise PreferenceError("duplicate taxi ids")
    unit_ids = np.array(unit_id_list, dtype=np.int64)
    taxi_ids = np.array(taxi_id_list, dtype=np.int64)
    if not units or not taxis:
        no_pairs, no_scores = np.empty(0, dtype=np.intp), np.empty(0)
        return arrays_from_pairs(
            unit_ids, taxi_ids, rj=no_pairs, ti=no_pairs, pick=no_scores, driver=no_scores
        )

    if settled is None:
        ti, gi = np.divmod(np.arange(len(taxis) * len(units)), len(units))
    else:
        # Only the strips of unsettled units (every taxi) and unsettled
        # taxis (every unit) can hold an acceptable pair.
        unit_settled, taxi_settled = settled
        ti, gi = np.nonzero(~(taxi_settled[:, None] & unit_settled[None, :]))
    ti, gi, pick, driver = _acceptable_cells(taxis, units, oracle, config, alphas, terms, ti, gi)
    return arrays_from_pairs(unit_ids, taxi_ids, rj=gi, ti=ti, pick=pick, driver=driver)


def _acceptable_cells(
    taxis: Sequence[Taxi],
    units: Sequence[RideGroup],
    oracle: DistanceOracle,
    config: DispatchConfig,
    alphas: list[float],
    terms: dict[tuple[int, ...], tuple[float, ...]] | None,
    ti: np.ndarray,
    gi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The acceptable cells among the ``(taxi ti[c], unit gi[c])``
    cells, with their passenger and driver scores."""
    entries: list[tuple[float, ...]] = []
    for group in units:
        key = group.request_ids
        entry = terms.get(key) if terms is not None else None
        if entry is None:
            entry = _unit_terms(group, oracle, config.beta)
            if terms is not None:
                terms[key] = entry
        entries.append(entry)
    # One row per unit (see _unit_terms), zero-padded to the widest, and
    # one per taxi: x, y, seats, α + 1.
    width = max(len(entry) for entry in entries)
    unit = np.array([entry + (0.0,) * (width - len(entry)) for entry in entries])[gi]
    taxi = np.array(
        [(t.location.x, t.location.y, t.seats, alpha + 1.0) for t, alpha in zip(taxis, alphas)]
    )[ti]
    # A = D(taxi, route start): taxis are the sources, as in the scalar
    # scores (asymmetric oracles distinguish the direction).
    approach = oracle_paired(oracle, sources=taxi[:, :2], targets=unit[:, :2], exact=True)
    size = unit[:, 2]
    # Passenger score: the sum over members of (A + offset_k) +
    # β·detour_k, accumulated member by member (the scalar order), over
    # the size.
    total = np.zeros_like(approach)
    for k in range((width - _UNIT_FACTS) // 2):
        offset, beta_detour = unit[:, _UNIT_FACTS + 2 * k], unit[:, _UNIT_FACTS + 2 * k + 1]
        has = size > k
        if has.all():
            total += (approach + offset) + beta_detour
        else:
            total[has] += (approach[has] + offset[has]) + beta_detour[has]
    passenger = total / size
    driver = (approach + unit[:, 3]) - taxi[:, 3] * unit[:, 5]
    ok = np.flatnonzero(
        (unit[:, 4] <= taxi[:, 2])
        & ~(passenger > config.passenger_threshold_km)
        & ~(driver > config.taxi_threshold_km)
    )
    return ti[ok], gi[ok], passenger[ok], driver[ok]


#: Leading fields of a unit's row: route start x, y, size, route
#: length, party size, Σ trip.
_UNIT_FACTS = 6


def _unit_terms(group: RideGroup, oracle: DistanceOracle, beta: float) -> tuple[float, ...]:
    """A unit's row for the sharing table: its :data:`_UNIT_FACTS`, then
    each member's pickup offset and β·detour, in member order."""
    trips = [request.trip_distance(oracle) for request in group.requests]
    offsets, onboard = group.pickup_offset_km, group.onboard_distance_km
    start = group.route_start
    row = [start.x, start.y, group.size, group.route_length_km, group.total_passengers, sum(trips)]
    for request, trip in zip(group.requests, trips):
        rid = request.request_id
        row += (offsets[rid], beta * (onboard[rid] - trip))
    return tuple(row)
