"""Enumerating feasible sharing groups (Algorithm 3, line 1).

A subset ``c_k`` of requests is feasible when, along the group's optimal
shared route, every member's detour ``D_ck(r_j^s, r_j^d) − D(r_j^s,
r_j^d)`` is at most θ.  The paper enumerates subsets of size ≤ 3
exhaustively in O(|R|³).

By default triples are only *tested* when all three member pairs are
feasible.  This pruning is motivated by a near-downward-closure: for
metric oracles, deleting a member's stops from a feasible triple's
route yields a θ-respecting pair route, so the pair *could* share
within θ — though the pair's own length-optimal route (which the
feasibility definition inspects) may occasionally differ.  The pruning
is therefore a documented heuristic that removes the vast majority of
the 90-sequence route searches while rarely dropping a candidate
triple; pass ``assume_metric=False`` to reproduce the paper's exact
O(|R|³) enumeration.

**Mask-driven enumeration.**  Candidates are read off boolean masks
instead of scanned: pairs are the row-major nonzeros of the upper
triangle of ``pickup_gap ≤ radius`` (lexicographic order), and triples
are, for each feasible pair ``(a, b)`` in order, the common feasible
successors ``c > b`` (again lexicographic).  Groups come out in the
order the ``itertools.combinations`` scans produced.  A
:class:`~repro.resilience.budget.WorkBudget` is still charged one node
per subset of that scan, skipped subsets included, in bulk before each
evaluated candidate, so truncation stops at the same subset and
``FeasibilityStats`` (``triples_pruned`` included) keeps its counts.
Each evaluated candidate is routed once; the route serves both the θ
check and the group.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import PackingError
from repro.core.types import PassengerRequest, RideGroup
from repro.geometry.batch import oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.resilience.budget import WorkBudget
from repro.routing.shared_route import SharedRoute, build_ride_group, feasible_shared_route

__all__ = ["FeasibilityStats", "group_is_feasible", "enumerate_feasible_groups"]


@dataclass(slots=True)
class FeasibilityStats:
    """Accounting of one feasible-group enumeration."""

    pairs_tested: int = 0
    pairs_feasible: int = 0
    triples_tested: int = 0
    triples_feasible: int = 0
    triples_pruned: int = 0
    groups: int = 0
    truncated: bool = False
    notes: list[str] = field(default_factory=list)


def group_is_feasible(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    theta_km: float,
    *,
    max_passengers: int | None = None,
    route: SharedRoute | None = None,
) -> bool:
    """Whether every member's detour is within θ on the group's optimal
    (shortest total length) route — the paper's feasibility definition.

    The length-optimal route is the one Theorem 5's exhaustive search
    produces and the taxi is assumed to drive; checking θ on *that*
    route (rather than searching for any θ-respecting route) is what
    filters out groups whose efficient route mistreats a member.

    ``route`` is that route when the caller already computed it
    (``feasible_shared_route(requests, oracle)``); the enumeration
    routes each candidate once and reuses the route for its group.
    """
    if not requests:
        raise PackingError("cannot test an empty group")
    if max_passengers is not None and sum(r.passengers for r in requests) > max_passengers:
        return False
    if route is None:
        route = feasible_shared_route(requests, oracle)
        assert route is not None  # unconstrained search always finds a route
    return all(route.detour_km(r, oracle) <= theta_km + 1e-9 for r in requests)


def enumerate_feasible_groups(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    max_passengers: int | None = 4,
    assume_metric: bool = True,
    pairing_radius_km: float | None = None,
    pickup_gap: np.ndarray | None = None,
    cache: dict[tuple[int, ...], RideGroup | None] | None = None,
    with_stats: bool = False,
    budget: WorkBudget | None = None,
) -> list[RideGroup] | tuple[list[RideGroup], FeasibilityStats]:
    """All feasible sharing groups of size 2..``config.max_group_size``.

    Group ids are consecutive from 0 in deterministic (member-id) order.
    ``max_passengers`` bounds the group's total party size (a group no
    taxi could seat is pointless to pack); ``None`` disables the bound.

    ``pairing_radius_km`` optionally skips pairs whose pickups are
    farther apart than the radius.  The detour definition alone admits
    degenerate "sequential" shares between arbitrarily distant requests
    (serve one fully, then drive to the other — both detours are zero),
    which are worthless rides for the later passenger and inflate the
    O(|R|³) enumeration; a radius of a few θ keeps every plausibly
    attractive group while restoring city-scale tractability.  ``None``
    reproduces the paper's unpruned enumeration.

    ``pickup_gap`` optionally supplies the pickup-to-pickup distance
    matrix for the **id-sorted** requests (e.g. from the simulation
    frame cache) so the radius prefilter skips recomputing it; ignored
    when no ``pairing_radius_km`` is set.

    ``cache`` memoizes each evaluated member-id tuple's group (or
    ``None`` when infeasible) across calls; a cached group is
    relabelled, not re-routed, and does not count as tested.

    ``budget`` charges one node per candidate subset considered, in
    lexicographic order, skipped ones included; an exhausted budget
    stops the enumeration early and marks ``stats.truncated``.  The
    groups found so far remain valid — unpaired requests simply ride as
    singletons downstream.
    """
    config = config if config is not None else DispatchConfig()
    stats = FeasibilityStats()
    ordered = sorted(requests, key=lambda r: r.request_id)
    n = len(ordered)
    groups: list[RideGroup] = []
    # feasible[a, b] (a < b): the pair of id-sorted positions a, b is a
    # feasible group, freshly evaluated or cached.
    feasible = np.zeros((n, n), dtype=bool)

    def evaluate(positions: tuple[int, ...]) -> bool:
        members = tuple(ordered[i] for i in positions)
        key = tuple(r.request_id for r in members)
        if cache is not None and key in cache:
            cached = cache[key]
            if cached is None:
                return False
            groups.append(cached.relabeled(len(groups)))
            return True
        is_pair = len(members) == 2
        if is_pair:
            stats.pairs_tested += 1
        else:
            stats.triples_tested += 1
        # A group no taxi can seat is rejected before any routing.
        fits = max_passengers is None or sum(r.passengers for r in members) <= max_passengers
        route = feasible_shared_route(members, oracle) if fits else None
        group = None
        if group_is_feasible(
            members, oracle, config.theta_km, max_passengers=max_passengers, route=route
        ):
            group = build_ride_group(len(groups), members, oracle, route=route)
            groups.append(group)
            if is_pair:
                stats.pairs_feasible += 1
            else:
                stats.triples_feasible += 1
        if cache is not None:
            cache[key] = None if group is None else group.relabeled(-1)
        return group is not None

    if config.max_group_size >= 2 and n >= 2:
        # Pair candidates in lexicographic order: the row-major nonzeros
        # of the upper triangle.  The radius prefilter inspects every
        # pair, so one batched pickup-to-pickup matrix replaces O(|R|²)
        # scalar oracle calls (exact=True keeps the decisions identical).
        keep = np.ones((n, n), dtype=bool)
        if pairing_radius_km is not None:
            if pickup_gap is not None:
                gap = np.asarray(pickup_gap, dtype=np.float64)
                if gap.shape != (n, n):
                    raise PackingError(
                        f"pickup_gap has shape {gap.shape}, expected ({n}, {n})"
                    )
            else:
                pickups = [r.pickup for r in ordered]
                gap = oracle_pairwise(oracle, sources=pickups, targets=pickups, exact=True)
            keep = ~(gap > pairing_radius_km)
        pa, pb = np.nonzero(np.triu(keep, k=1))
        charge = _Charge(budget, n * (n - 1) // 2)
        for a, b, index in zip(pa.tolist(), pb.tolist(), _pair_index(pa, pb, n).tolist()):
            if not charge.upto(index):
                break
            feasible[a, b] = evaluate((a, b))
        else:
            charge.rest()
        stats.truncated = charge.truncated

    if config.max_group_size >= 3 and not stats.truncated and n >= 3:
        if assume_metric:
            # Triples whose three pairs are all feasible, in
            # lexicographic order: for each feasible pair (a, b) in
            # order, the common feasible successors c > b.
            pa, pb = np.nonzero(feasible)
            rows, tc = np.nonzero(feasible[pa] & feasible[pb])
            ta, tb = pa[rows], pb[rows]
            triples: Iterator[tuple[int, int, int, int]] = zip(
                ta.tolist(), tb.tolist(), tc.tolist(), _triple_index(ta, tb, tc, n).tolist()
            )
        else:
            triples = (
                (a, b, c, index)
                for index, (a, b, c) in enumerate(itertools.combinations(range(n), 3))
            )
        charge = _Charge(budget, n * (n - 1) * (n - 2) // 6)
        evaluated = 0
        for a, b, c, index in triples:
            if not charge.upto(index):
                break
            evaluate((a, b, c))
            evaluated += 1
        else:
            charge.rest()
        stats.truncated = charge.truncated
        if assume_metric:
            stats.triples_pruned = charge.scanned - evaluated

    if stats.truncated:
        stats.notes.append("group enumeration stopped by work budget")
    stats.groups = len(groups)
    if with_stats:
        return groups, stats
    return groups


class _Charge:
    """Bulk node charging over one lexicographic scan of ``total``
    candidate subsets, equivalent to spending one node per subset.

    ``upto(index)`` charges every subset before ``index`` plus
    ``index`` itself and says whether ``index`` may be evaluated;
    ``rest()`` charges the subsets after the last evaluated one.  Once
    the budget trips, ``scanned`` is the number of subsets a per-subset
    scan would have passed before stopping.
    """

    __slots__ = ("budget", "total", "scanned", "truncated", "_base")

    def __init__(self, budget: WorkBudget | None, total: int):
        self.budget = budget
        self.total = total
        self.scanned = 0
        self.truncated = False
        self._base = budget.nodes if budget is not None else 0

    def upto(self, index: int) -> bool:
        budget = self.budget
        if budget is not None and not budget.spend(index + 1 - self.scanned):
            self._trip(index)
            return False
        self.scanned = index + 1
        return True

    def rest(self) -> None:
        if self.scanned < self.total:
            self.upto(self.total - 1)

    def _trip(self, index: int) -> None:
        # A per-subset scan stops at the first subset whose node
        # overruns max_nodes; a deadline trip has no exact position.
        self.truncated = True
        budget = self.budget
        assert budget is not None
        stop = index
        if budget.max_nodes is not None:
            stop = min(index, max(self.scanned, budget.max_nodes - self._base))
        self.scanned = stop


def _pair_index(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Position of pair ``(a, b)``, ``a < b``, in
    ``itertools.combinations(range(n), 2)``."""
    m = n - a
    return (n * (n - 1) - m * (m - 1)) // 2 + (b - a - 1)


def _triple_index(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Position of triple ``(a, b, c)``, ``a < b < c``, in
    ``itertools.combinations(range(n), 3)``: the triples starting
    before ``a``, then those starting ``(a, b')`` with ``b' < b``."""
    m = n - a
    k = n - b
    before_a = (n * (n - 1) * (n - 2) - m * (m - 1) * (m - 2)) // 6
    before_b = ((m - 1) * (m - 2) - k * (k - 1)) // 2
    return before_a + before_b + (c - b - 1)
