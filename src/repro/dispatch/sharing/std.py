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
from typing import Any

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import DispatchError
from repro.core.types import DispatchSchedule, PassengerRequest, RideGroup, Taxi
from repro.dispatch.base import Dispatcher, group_assignment
from repro.dispatch.sharing.preferences import build_sharing_table
from repro.geometry.distance import DistanceOracle
from repro.matching.optimality import passenger_optimal, taxi_optimal
from repro.packing.feasibility import enumerate_feasible_groups
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


def pack_requests(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    packer: str = "local",
    max_passengers: int | None = 4,
    pairing_radius_km: float | None = None,
    pickup_gap: np.ndarray | None = None,
    cache: dict | None = None,
    budget: WorkBudget | None = None,
) -> list[RideGroup]:
    """Stage one of Algorithm 3: the dispatch units ``R' ∪ C'``.

    Returns packed multi-request groups plus singleton groups for every
    unpacked request, with consecutive group ids in deterministic order.

    ``cache`` is the caller's cross-frame group memo, keyed by member
    request ids: it holds every evaluated candidate group (``None`` when
    infeasible) and every singleton unit.  Request ids must identify
    requests for the memo's lifetime.

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
        pickup_gap=pickup_gap,
        cache=cache,
        budget=budget,
    )
    member_sets = [frozenset(g.request_ids) for g in candidates]
    chosen_indices = _PACKERS[packer](member_sets, budget).chosen if member_sets else ()

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
    return units


class STDDispatcher(Dispatcher):
    """Sharing Taxi Dispatch via set packing + stable matching."""

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
        self._group_cache: dict = {}

    def reset_warm_state(self, *, counters: bool = False) -> None:
        """At run start (``counters=True``) drop the group memo: request
        ids only identify requests within one run."""
        if counters:
            self._group_cache.clear()

    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        schedule = DispatchSchedule()
        if not taxis or not requests:
            return schedule
        self.checkpoint("std:start")
        max_seats = max(t.seats for t in taxis)
        batch = clip_batch(requests, taxis, self.config, self.max_batch)
        if len(self._group_cache) > 500_000:
            self._group_cache.clear()
        pickup_gap = None
        if self.pairing_radius_km is not None:
            # clip_batch returns the batch id-sorted, the order the
            # enumeration's radius prefilter expects.
            pickup_gap = self.distance_cache().pickup_gap_matrix(batch)
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
            pickup_gap=pickup_gap,
            cache=self._group_cache,
            budget=pack_budget,
        )
        self.checkpoint("std:packed")
        prefs = build_sharing_table(taxis, units, self.oracle, self.config)
        self.checkpoint("std:table-built")
        if self.optimize_for == "passenger":
            matching = passenger_optimal(prefs)
        else:
            matching = taxi_optimal(prefs)
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
