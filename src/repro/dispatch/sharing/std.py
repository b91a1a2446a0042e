"""STD-P and STD-T: Algorithm 3 — sharing taxi dispatch.

Two stages, exactly as in the paper:

1. **Pack** — enumerate every feasible sharing group (member detours
   within θ along the group's optimal route) and solve the Maximum Set
   Packing Problem so as many groups as possible ride together.  The
   default solver is the local-search approximation behind the paper's
   cited (max|c|+2)/3 ratio [21]; greedy and exact solvers are
   selectable.
2. **Match** — treat each packed group, and every leftover request as a
   singleton group, as one dispatch unit, then run Algorithm 1 on units
   versus taxis with the sharing preference orders of Section V-A.
   ``optimize_for`` picks the passenger-optimal (STD-P) or taxi-optimal
   (STD-T) stable matching.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import DispatchError
from repro.core.types import DispatchSchedule, PassengerRequest, RideGroup, Taxi
from repro.dispatch.base import Dispatcher, group_assignment
from repro.dispatch.sharing.preferences import build_sharing_table
from repro.geometry.distance import DistanceOracle
from repro.matching.arrays import PreferenceArrays
from repro.matching.optimality import passenger_optimal, taxi_optimal
from repro.matching.result import Matching
from repro.packing.feasibility import GroupFamily, GroupMemo, enumerate_feasible_groups
from repro.packing.set_packing import (
    exact_set_packing,
    greedy_set_packing,
    local_search_packing,
)
from repro.resilience.budget import WorkBudget
from repro.routing.shared_route import build_ride_group

__all__ = ["STDDispatcher", "std_p", "std_t", "pack_requests", "clip_batch"]


def clip_batch(
    requests: Sequence[PassengerRequest],
    taxis: Sequence[Taxi],
    config: DispatchConfig,
    max_batch: int | None,
) -> list[PassengerRequest]:
    """Limit one frame's sharing workload to what the fleet can absorb.

    A frame can serve at most ``max_group_size × |idle taxis|`` requests,
    so feeding the whole backlog into the O(|R|²)–O(|R|³) group
    enumeration buys nothing once the queue outgrows the fleet.  The
    oldest requests (lowest ids = earliest arrivals) are kept, plus
    slack so the packer still has pairing choices.  Pass ``max_batch``
    explicitly to override the automatic bound (any value ≥ len(requests)
    disables clipping, reproducing the paper's unbounded enumeration).
    """
    bound = (
        max_batch
        if max_batch is not None
        else config.max_group_size * len(taxis) + 8 * config.max_group_size
    )
    ordered = sorted(requests, key=lambda r: r.request_id)
    return ordered[: max(bound, 1)]

_PACKERS = {
    "greedy": lambda sets, budget: greedy_set_packing(sets),
    "local": lambda sets, budget: local_search_packing(sets, budget=budget),
    "exact": lambda sets, budget: exact_set_packing(sets, budget=budget),
}


@dataclass(frozen=True, slots=True)
class _Packing:
    """A packer's verdict on one group family, kept for the next frame.

    ``nodes`` is what the packer charged its work budget (``None`` when
    it ran without one); ``units`` are the dispatch units built from it
    for the family's batch.
    """

    packer: str
    family: GroupFamily
    keys: list[tuple[int, ...]]
    chosen: tuple[int, ...]
    nodes: int | None
    units: tuple[RideGroup, ...]


def pack_requests(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    packer: str = "local",
    max_passengers: int | None = 4,
    pairing_radius_km: float | None = None,
    cache: GroupMemo | None = None,
    budget: WorkBudget | None = None,
) -> list[RideGroup]:
    """Stage one of Algorithm 3: the dispatch units ``R' ∪ C'``.

    Returns packed multi-request groups plus singleton groups for every
    unpacked request, with consecutive group ids in deterministic order.

    ``cache`` is the caller's cross-frame
    :class:`~repro.packing.feasibility.GroupMemo`, keyed by member
    request ids: it holds every evaluated candidate group (``None`` when
    infeasible) and every singleton unit.  Request ids must identify
    requests for the memo's lifetime.  It also carries the last frame's
    group family and its packing: the enumeration then evaluates only
    the candidates that touch new requests, and an unchanged family
    reuses the packer's choice, since packing is a deterministic
    function of the family.

    ``budget`` makes the stage *anytime*: group enumeration and the
    packer stop expanding when the budget exhausts, so the result may
    pack fewer requests but is always a valid set of dispatch units
    (unpacked requests simply ride as singletons).
    """
    if packer not in _PACKERS:
        raise DispatchError(f"unknown packer {packer!r}; choose from {sorted(_PACKERS)}")
    candidates = enumerate_feasible_groups(
        requests,
        oracle,
        config,
        max_passengers=max_passengers,
        pairing_radius_km=pairing_radius_km,
        cache=cache,
        budget=budget,
    )
    family = cache.family if cache is not None else None
    keys = family.keys if family is not None else None
    record = cache.packing if cache is not None else None
    reuse = (
        record
        if isinstance(record, _Packing)
        and record.packer == packer
        and record.keys == keys
        and _replays(record.nodes, budget)
        else None
    )
    if reuse is not None and reuse.family is family:
        # The same batch and family as the recorded packing's.
        return list(reuse.units)
    nodes: int | None = None
    chosen_indices: Sequence[int]
    if reuse is not None:
        chosen_indices = reuse.chosen
        nodes = reuse.nodes
    elif candidates:
        member_sets = [frozenset(g.request_ids) for g in candidates]
        base = budget.nodes if budget is not None else 0
        result = _PACKERS[packer](member_sets, budget)
        chosen_indices = result.chosen
        if budget is not None:
            nodes = budget.nodes - base
        if result.truncated:
            keys = None  # a truncated packing is no verdict on the family
    else:
        chosen_indices = ()
        nodes = 0 if budget is not None else None

    units: list[RideGroup] = []
    packed_ids: set[int] = set()
    for index in chosen_indices:
        group = candidates[index]
        units.append(group.relabeled(len(units)))
        packed_ids.update(group.request_ids)
    for request in sorted(requests, key=lambda r: r.request_id):
        if request.request_id in packed_ids:
            continue
        # A queued request's singleton unit never changes, so the memo
        # routes it once per run rather than once per frame.
        key = (request.request_id,)
        single = cache.get(key) if cache is not None else None
        if single is None:
            single = build_ride_group(-1, (request,), oracle)
            if cache is not None:
                cache[key] = single
        units.append(single.relabeled(len(units)))
    if cache is not None and family is not None:
        cache.packing = (
            None
            if keys is None
            else _Packing(packer, family, keys, tuple(chosen_indices), nodes, tuple(units))
        )
    return units


def _replays(nodes: int | None, budget: WorkBudget | None) -> bool:
    """Whether a recorded packing that charged ``nodes`` stands under
    ``budget``: it fits, and is charged.  One that would trip part-way
    reruns the packer, which stops where it always did."""
    if budget is None:
        return True
    if nodes is None:
        return False
    if budget.max_nodes is not None and budget.nodes + nodes > budget.max_nodes:
        return False
    return budget.spend(nodes)


class _SettledMarket:
    """The units and taxis the last stable matching left unmatched.

    Two of them cannot be mutually acceptable, or they would have
    blocked that matching; a unit with the same members and a taxi
    re-presented as the same object score exactly as they did, so they
    still cannot.  Units are held by member-id key, taxis by object
    (the reference keeps the object's identity from being recycled).
    """

    __slots__ = ("unit_keys", "taxis")

    def __init__(
        self, units: Sequence[RideGroup], taxis: Sequence[Taxi], matching: Matching
    ):
        matched_units = {unit_id for unit_id, _ in matching.pairs}
        matched_taxis = {taxi_id for _, taxi_id in matching.pairs}
        self.unit_keys = frozenset(
            g.request_ids for g in units if g.group_id not in matched_units
        )
        self.taxis = {t.taxi_id: t for t in taxis if t.taxi_id not in matched_taxis}

    def masks(
        self, units: Sequence[RideGroup], taxis: Sequence[Taxi]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Which of this frame's units and taxis are still settled."""
        unit_keys, held = self.unit_keys, self.taxis
        return (
            np.fromiter((g.request_ids in unit_keys for g in units), dtype=bool, count=len(units)),
            np.fromiter(
                (held.get(t.taxi_id) is t for t in taxis), dtype=bool, count=len(taxis)
            ),
        )


class STDDispatcher(Dispatcher):
    """Sharing Taxi Dispatch via set packing + stable matching.

    Frames run warm (DESIGN §10, "Warm STD"): the group memo carries the
    last frame's group family and packing, so only candidates touching
    new requests are evaluated, and the market scores only the strips of
    units and taxis the last matching did not leave unmatched.  Both are
    bit-identical to a cold frame.

    Run telemetry: ``warm_frames`` / ``cold_frames`` partition the
    dispatched frames; each cold frame also counts
    ``warm_fallback_<reason>``.  ``pairs_scored_warm`` /
    ``full_pairs_warm`` are the market cells scored on frames with a
    carried market, and the cells a full build would have scored.
    """

    #: Cross-frame attributes deliberately left out of :meth:`state_payload`.
    DURABILITY_EXCLUSIONS: ClassVar[dict[str, str]] = {
        "_group_cache": (
            "memo of routed groups and the last group family, a function of "
            "the queued requests; a resumed run rebuilds it cold, bit-identically"
        ),
        "_market": (
            "derived from the last frame's matching; a resumed run's first "
            "frame scores the full market and reseeds it"
        ),
    }

    def __init__(
        self,
        oracle: DistanceOracle,
        config: DispatchConfig | None = None,
        *,
        optimize_for: str = "passenger",
        packer: str = "local",
        pairing_radius_km: float | None = None,
        max_batch: int | None = None,
    ):
        super().__init__(oracle, config)
        if optimize_for not in ("passenger", "taxi"):
            raise ValueError(f"optimize_for must be 'passenger' or 'taxi', got {optimize_for!r}")
        self.optimize_for = optimize_for
        self.packer = packer
        self.pairing_radius_km = pairing_radius_km
        self.max_batch = max_batch
        self.name = "STD-P" if optimize_for == "passenger" else "STD-T"
        # Cross-frame group memo: queued requests keep their ids, so
        # group routes computed in earlier frames stay valid within a run.
        self._group_cache: GroupMemo = GroupMemo()
        self._market: _SettledMarket | None = None

    def reset_warm_state(self, *, counters: bool = False) -> None:
        """Drop the carried family and market (the next frame runs cold).

        At run start (``counters=True``) also drop the group memo, since
        request ids only identify requests within one run, and the run
        counters.
        """
        super().reset_warm_state(counters=counters)
        if counters:
            self._group_cache.clear()
        self._group_cache.drop_family("run-start" if counters else "ladder")
        self._market = None

    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        schedule = DispatchSchedule()
        if not taxis or not requests:
            return schedule
        self.checkpoint("std:start")
        memo = self._group_cache
        memo.retain({r.request_id for r in requests})
        max_seats = max(t.seats for t in taxis)
        batch = clip_batch(requests, taxis, self.config, self.max_batch)
        # Under a frame deadline the exponential pack stage runs anytime:
        # it stops growing the candidate pool when time is up and packs
        # what it has, leaving the rest as singleton units.
        pack_budget = (
            WorkBudget(deadline=self.frame_budget) if self.frame_budget is not None else None
        )
        units = pack_requests(
            batch,
            self.oracle,
            self.config,
            packer=self.packer,
            max_passengers=max_seats,
            pairing_radius_km=self.pairing_radius_km,
            cache=memo,
            budget=pack_budget,
        )
        if memo.last_fallback is None:
            self._bump("warm_frames")
        else:
            self._bump("cold_frames")
            self._bump(f"warm_fallback_{memo.last_fallback}")
        self.checkpoint("std:packed")
        settled: tuple[np.ndarray, np.ndarray] | None = None
        if self._market is not None:
            settled = self._market.masks(units, taxis)
            full = len(units) * len(taxis)
            self._bump("full_pairs_warm", full)
            self._bump(
                "pairs_scored_warm", full - int(settled[0].sum()) * int(settled[1].sum())
            )
        # With every unit and taxi settled no pair can be acceptable.
        prefs: PreferenceArrays | None = None
        if settled is None or not (settled[0].all() and settled[1].all()):
            prefs = build_sharing_table(
                taxis, units, self.oracle, self.config, terms=memo.unit_terms, settled=settled
            )
        self.checkpoint("std:table-built")
        if prefs is None or not prefs.proposer_list.size:
            # No acceptable pair: the matching is empty, no rounds needed.
            matching = Matching({})
        elif self.optimize_for == "passenger":
            matching = passenger_optimal(prefs)
        else:
            matching = taxi_optimal(prefs)
        self._market = _SettledMarket(units, taxis, matching)
        taxis_by_id = {t.taxi_id: t for t in taxis}
        units_by_id = {g.group_id: g for g in units}
        for unit_id, taxi_id in sorted(matching.pairs):
            schedule.add(group_assignment(taxis_by_id[taxi_id], units_by_id[unit_id]))
        return self._validated(schedule, taxis, requests)


def std_p(
    oracle: DistanceOracle, config: DispatchConfig | None = None, **kwargs: Any
) -> STDDispatcher:
    """The packed passenger-optimal stable dispatcher."""
    return STDDispatcher(oracle, config, optimize_for="passenger", **kwargs)


def std_t(
    oracle: DistanceOracle, config: DispatchConfig | None = None, **kwargs: Any
) -> STDDispatcher:
    """The packed taxi-optimal stable dispatcher."""
    return STDDispatcher(oracle, config, optimize_for="taxi", **kwargs)
