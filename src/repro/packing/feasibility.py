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
triangle of ``D(pickup_a, pickup_b) ≤ radius`` (lexicographic order),
and triples are, for each feasible pair ``(a, b)`` in order, the common
feasible successors ``c > b`` (again lexicographic).  Groups come out
in the order the ``itertools.combinations`` scans produced.  A
:class:`~repro.resilience.budget.WorkBudget` is still charged one node
per subset of that scan, skipped subsets included, in bulk before each
evaluated candidate, so truncation stops at the same subset and
``FeasibilityStats`` (``triples_pruned`` included) keeps its counts.
Each evaluated candidate is routed once; the route serves both the θ
check and the group.

**Warm enumeration.**  A :class:`GroupMemo` carries the last complete
enumeration over it (:class:`GroupFamily`).  The next call on the memo
evaluates only the pairs and triples that touch a request new to the
batch, takes every other verdict from the carried family and
feasible-pair mask (a memo hit would return the same verdict), and
merges the two into the full scan's order; the groups, their order and
the stats are the full scan's (DESIGN §10, "Warm STD").  Its radius
prefilter measures only the gap strip those pairs read.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Container, Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import WARM_FALLBACK_OTHER, PackingError
from repro.core.types import PassengerRequest, RideGroup
from repro.geometry.batch import oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.resilience.budget import WorkBudget
from repro.routing.shared_route import SharedRoute, build_ride_group, feasible_shared_route

__all__ = [
    "FeasibilityStats",
    "GroupFamily",
    "GroupMemo",
    "group_is_feasible",
    "enumerate_feasible_groups",
]


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
    cache: GroupMemo | None = None,
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

    ``cache`` memoizes each evaluated member-id tuple's group (or
    ``None`` when infeasible) across calls; a cached group is
    relabelled, not re-routed, and does not count as tested.  A cached
    group the call's ``max_passengers`` cannot seat is rejected, and a
    seat rejection is re-evaluated once a call's bound seats the group.
    The cache also carries this call's enumeration to the next one,
    which then evaluates only the candidates that touch a request new
    to the batch (see :class:`GroupMemo`); the groups, their order and
    the stats are those of the full scan.

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
    signature = (max_passengers, assume_metric, pairing_radius_km, config.theta_km,
                 config.max_group_size)

    def evaluate(positions: tuple[int, ...]) -> tuple[tuple[int, ...], RideGroup | None]:
        """The candidate's memo key and its group (``None`` when
        infeasible), from the memo or freshly routed."""
        members = tuple(ordered[i] for i in positions)
        key = tuple(r.request_id for r in members)
        # A group no taxi can seat is rejected before any routing.
        fits = max_passengers is None or sum(r.passengers for r in members) <= max_passengers
        if cache is not None and key in cache:
            if not fits:
                return key, None
            if key not in cache.seat_rejected:
                return key, cache[key]
            cache.seat_rejected.discard(key)
        is_pair = len(members) == 2
        if is_pair:
            stats.pairs_tested += 1
        else:
            stats.triples_tested += 1
        route = feasible_shared_route(members, oracle) if fits else None
        group = None
        if group_is_feasible(
            members, oracle, config.theta_km, max_passengers=max_passengers, route=route
        ):
            group = build_ride_group(-1, members, oracle, route=route)
            if is_pair:
                stats.pairs_feasible += 1
            else:
                stats.triples_feasible += 1
        if cache is not None:
            cache[key] = group
            if not fits:
                cache.seat_rejected.add(key)
        return key, group

    carried = cache.family if cache is not None else None
    fallback = None
    if cache is not None:
        fallback = (
            cache.cold_reason
            if carried is None
            else carried.mismatch(signature, budget, _scan_nodes(n, config.max_group_size))
        )
    if carried is not None and fallback is None:
        pairs, triples, feasible = _enumerate_warm(
            carried, ordered, oracle, config, pairing_radius_km, evaluate, stats, with_stats,
        )
    else:
        pairs, triples, feasible = _enumerate_cold(
            ordered, oracle, config, assume_metric, pairing_radius_km, evaluate, stats, budget,
        )

    if stats.truncated:
        stats.notes.append("group enumeration stopped by work budget")
    if carried is not None and feasible is carried.feasible:
        # The same batch again: its family carries over whole.
        groups = list(carried.groups)
    else:
        groups = [group.relabeled(index) for index, (_, group) in enumerate(pairs + triples)]
        if cache is not None and not stats.truncated and assume_metric:
            cache.family = GroupFamily(
                ids=np.fromiter((r.request_id for r in ordered), dtype=np.int64, count=n),
                feasible=feasible,
                pairs=pairs,
                triples=triples,
                groups=tuple(groups),
                signature=signature,
            )
    stats.groups = len(groups)
    if cache is not None:
        cache.last_fallback = fallback
        if stats.truncated or not assume_metric:
            # A truncated scan is not the batch's family; an unpruned
            # one has no feasible-pair rule to extend it by.
            cache.drop_family("budget" if stats.truncated else WARM_FALLBACK_OTHER)
    if with_stats:
        return groups, stats
    return groups


_Family = list[tuple[tuple[int, ...], RideGroup]]
_Evaluate = Callable[[tuple[int, ...]], tuple[tuple[int, ...], "RideGroup | None"]]


def _pair_candidates(
    ordered: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    pairing_radius_km: float | None,
    entrant: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``a < b`` of id-sorted positions the radius prefilter
    admits, in lexicographic order.  The prefilter inspects every pair,
    so one batched pickup-to-pickup matrix replaces O(|R|²) scalar
    oracle calls (exact=True keeps the decisions identical).

    With an ``entrant`` mask only pairs with an entrant among them are
    candidates.  Each ends at or after the first entrant, so their gaps
    are the columns from the first entrant on: one exact strip
    ``D(pickup_a, pickup_b)``, read in pickup order as the full matrix
    reads it (the one-way ring is asymmetric).  The entrants of a
    clipped batch are its id-sorted tail, so the strip holds little
    else.
    """
    n = len(ordered)
    if entrant is None:
        first = 0
        keep = np.ones((n, n), dtype=bool)
    else:
        first = int(np.argmax(entrant))
        keep = entrant[:, None] | entrant[None, first:]
    if pairing_radius_km is not None:
        pickups = [r.pickup for r in ordered]
        gap = oracle_pairwise(oracle, sources=pickups, targets=pickups[first:], exact=True)
        keep &= ~(gap > pairing_radius_km)
    pa, pb = np.nonzero(keep)
    pb += first
    upper = pa < pb
    return pa[upper], pb[upper]


def _triple_candidates(feasible: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triples whose three pairs are all feasible, in lexicographic
    order: for each feasible pair ``(a, b)`` in order, the common
    feasible successors ``c > b``."""
    pa, pb = np.nonzero(feasible)
    rows, tc = np.nonzero(feasible[pa] & feasible[pb])
    return pa[rows], pb[rows], tc


def _enumerate_cold(
    ordered: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    assume_metric: bool,
    pairing_radius_km: float | None,
    evaluate: _Evaluate,
    stats: FeasibilityStats,
    budget: WorkBudget | None,
) -> tuple[_Family, _Family, np.ndarray]:
    """The full lexicographic scan: the feasible pairs, the feasible
    triples and the feasible-pair mask of the id-sorted batch."""
    n = len(ordered)
    pairs: _Family = []
    triples: _Family = []
    # feasible[a, b] (a < b): the pair of id-sorted positions a, b is a
    # feasible group, freshly evaluated or cached.
    feasible = np.zeros((n, n), dtype=bool)

    if config.max_group_size >= 2 and n >= 2:
        # Pair candidates in lexicographic order: the row-major nonzeros
        # of the upper triangle.
        pa, pb = _pair_candidates(ordered, oracle, pairing_radius_km)
        charge = _Charge(budget, n * (n - 1) // 2)
        for a, b, index in zip(pa.tolist(), pb.tolist(), _pair_index(pa, pb, n).tolist()):
            if not charge.upto(index):
                break
            key, group = evaluate((a, b))
            if group is not None:
                feasible[a, b] = True
                pairs.append((key, group))
        else:
            charge.rest()
        stats.truncated = charge.truncated

    if config.max_group_size >= 3 and not stats.truncated and n >= 3:
        if assume_metric:
            ta, tb, tc = _triple_candidates(feasible)
            candidates: Iterator[tuple[int, int, int, int]] = zip(
                ta.tolist(), tb.tolist(), tc.tolist(), _triple_index(ta, tb, tc, n).tolist()
            )
        else:
            candidates = (
                (a, b, c, index)
                for index, (a, b, c) in enumerate(itertools.combinations(range(n), 3))
            )
        charge = _Charge(budget, n * (n - 1) * (n - 2) // 6)
        evaluated = 0
        for a, b, c, index in candidates:
            if not charge.upto(index):
                break
            key, group = evaluate((a, b, c))
            if group is not None:
                triples.append((key, group))
            evaluated += 1
        else:
            charge.rest()
        stats.truncated = charge.truncated
        if assume_metric:
            stats.triples_pruned = charge.scanned - evaluated
    return pairs, triples, feasible


def _enumerate_warm(
    carried: "GroupFamily",
    ordered: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    pairing_radius_km: float | None,
    evaluate: _Evaluate,
    stats: FeasibilityStats,
    with_stats: bool,
) -> tuple[_Family, _Family, np.ndarray]:
    """:func:`_enumerate_cold`'s result from the previous batch's family.

    A candidate whose members were all in the previous batch is a memo
    hit with the verdict it had then, so the carried family and
    feasible-pair mask answer it.  Only the pairs and triples that touch
    an entrant are evaluated; each kind is merged into the lexicographic
    order of the full scan.  Without entrants the triple scan only
    counts ``stats.triples_pruned``, so it runs only ``with_stats``.
    """
    n = len(ordered)
    ids = np.fromiter((r.request_id for r in ordered), dtype=np.int64, count=n)
    prev_ids = carried.ids
    if n == prev_ids.size and np.array_equal(ids, prev_ids):
        if with_stats and config.max_group_size >= 3 and n >= 3:
            triples = n * (n - 1) * (n - 2) // 6
            stats.triples_pruned = triples - int(_triple_candidates(carried.feasible)[0].size)
        return carried.pairs, carried.triples, carried.feasible
    pos = np.searchsorted(prev_ids, ids)
    retained = np.zeros(n, dtype=bool)
    if prev_ids.size:
        retained = prev_ids[np.minimum(pos, prev_ids.size - 1)] == ids
    entrant = ~retained
    rows = np.flatnonzero(retained)
    feasible = np.zeros((n, n), dtype=bool)
    before = pos[rows]
    feasible[rows[:, None], rows] = carried.feasible[before[:, None], before]
    departed = (
        set(prev_ids.tolist()).difference(ids[rows].tolist())
        if rows.size < prev_ids.size
        else set()
    )

    def kept(family: _Family) -> _Family:
        return [entry for entry in family if departed.isdisjoint(entry[0])] if departed else family

    pairs: _Family = kept(carried.pairs)
    triples: _Family = kept(carried.triples)
    fresh_any = bool(entrant.any())
    if config.max_group_size >= 2 and n >= 2 and fresh_any:
        pa, pb = _pair_candidates(ordered, oracle, pairing_radius_km, entrant)
        fresh: _Family = []
        for a, b in zip(pa.tolist(), pb.tolist()):
            key, group = evaluate((a, b))
            if group is not None:
                feasible[a, b] = True
                fresh.append((key, group))
        pairs = _merged(pairs, fresh)
    if config.max_group_size >= 3 and n >= 3 and (fresh_any or with_stats):
        ta, tb, tc = _triple_candidates(feasible)
        touch = entrant[ta] | entrant[tb] | entrant[tc]
        fresh = []
        for a, b, c in zip(ta[touch].tolist(), tb[touch].tolist(), tc[touch].tolist()):
            key, group = evaluate((a, b, c))
            if group is not None:
                fresh.append((key, group))
        triples = _merged(triples, fresh)
        stats.triples_pruned = n * (n - 1) * (n - 2) // 6 - int(ta.size)
    return pairs, triples, feasible


def _merged(retained: _Family, fresh: _Family) -> _Family:
    """Two lexicographically ordered runs of disjoint keys as one."""
    if not fresh:
        return retained
    return sorted(retained + fresh, key=itemgetter(0))


def _scan_nodes(n: int, max_group_size: int) -> int:
    """The nodes a full scan of ``n`` requests charges a budget: one per
    candidate pair and, for groups of three, one per candidate triple."""
    nodes = n * (n - 1) // 2 if max_group_size >= 2 and n >= 2 else 0
    if max_group_size >= 3 and n >= 3:
        nodes += n * (n - 1) * (n - 2) // 6
    return nodes


@dataclass(frozen=True, slots=True)
class GroupFamily:
    """One complete enumeration: what the next batch carries over.

    ``ids`` is the id-sorted batch, ``feasible`` its feasible-pair mask
    over those positions, and ``pairs`` / ``triples`` its feasible
    groups (memo key, group under id −1) in lexicographic order;
    ``groups`` is what the enumeration returned for them.
    ``signature`` is the call's
    ``(max_passengers, assume_metric, pairing_radius_km, θ,
    max_group_size)``.
    """

    ids: np.ndarray
    feasible: np.ndarray
    pairs: _Family
    triples: _Family
    groups: tuple[RideGroup, ...]
    signature: tuple[object, ...]

    @property
    def keys(self) -> list[tuple[int, ...]]:
        """The member-id keys of the family, in enumeration order."""
        return [key for key, _ in self.pairs] + [key for key, _ in self.triples]

    def mismatch(
        self, signature: tuple[object, ...], budget: WorkBudget | None, nodes: int
    ) -> str | None:
        """Why a call with ``signature`` under ``budget`` cannot extend this
        family (a fallback reason), or ``None`` when it can.

        A budget that admits the full scan's ``nodes`` is charged them
        here, at once; one that would trip part-way sends the call down
        the full scan, which truncates where it always did.
        """
        if signature[1:] != self.signature[1:]:
            return WARM_FALLBACK_OTHER
        if signature[0] != self.signature[0]:
            return "max-passengers"
        if budget is not None:
            if budget.max_nodes is not None and budget.nodes + nodes > budget.max_nodes:
                return "budget"
            if not budget.spend(nodes):
                return "budget"
        return None


class GroupMemo(dict[tuple[int, ...], "RideGroup | None"]):
    """A dispatcher's cross-frame group memo, keyed by member-id tuple.

    As a ``dict`` it holds every evaluated candidate (``None``
    when infeasible) and every singleton unit.  On top of that it keeps:

    * an id → keys index, so :meth:`retain` evicts the entries of
      requests that left the queue in time proportional to the queue
      and the evicted entries, never to the memo;
    * :attr:`unit_terms`, each unit's member vectors for the sharing
      table (:func:`~repro.dispatch.sharing.preferences.build_sharing_table`),
      evicted with their key;
    * :attr:`seat_rejected`, the keys whose ``None`` is a seat
      rejection rather than a θ rejection: that verdict holds only
      while the frame's ``max_passengers`` cannot seat the group, so a
      frame that can re-evaluates it, as a fresh memo would;
    * :attr:`family`, the last complete enumeration over it, which the
      next :func:`enumerate_feasible_groups` call extends by the batch's
      entrants instead of rescanning; and :attr:`packing`, the packer's
      verdict on that family (set by
      :func:`~repro.dispatch.sharing.std.pack_requests`).

    :attr:`last_fallback` is ``None`` when the last enumeration extended
    a carried family, else the reason it scanned in full;
    :attr:`cold_reason` is the reason the next one will give while no
    family is carried.
    """

    def __init__(self) -> None:
        super().__init__()
        self._keys_by_id: dict[int, list[tuple[int, ...]]] = {}
        self.unit_terms: dict[tuple[int, ...], tuple[float, ...]] = {}
        self.seat_rejected: set[tuple[int, ...]] = set()
        self.family: GroupFamily | None = None
        self.packing: object | None = None
        self.cold_reason = "run-start"
        self.last_fallback: str | None = None

    def __setitem__(self, key: tuple[int, ...], value: RideGroup | None) -> None:
        if key not in self:
            index = self._keys_by_id
            for rid in key:
                index.setdefault(rid, []).append(key)
        super().__setitem__(key, value)

    def retain(self, live_ids: Container[int]) -> None:
        """Evict every entry naming a request outside ``live_ids``.

        Requests never return once they leave the queue, so those
        entries are dead.
        """
        index = self._keys_by_id
        for rid in [rid for rid in index if rid not in live_ids]:
            for key in index.pop(rid):
                self.pop(key, None)
                self.unit_terms.pop(key, None)
                self.seat_rejected.discard(key)

    def drop_family(self, reason: str) -> None:
        """Forget the carried enumeration; the next one scans in full and
        reports ``reason``."""
        self.family = None
        self.packing = None
        self.cold_reason = reason

    def clear(self) -> None:
        super().clear()
        self._keys_by_id.clear()
        self.unit_terms.clear()
        self.seat_rejected.clear()
        self.drop_family("memo-cleared")


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
