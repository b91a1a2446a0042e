"""ILP baseline ([6]): integer-programmed sharing dispatch with a
heuristic for large frames.

The cited work formulates taxi sharing as an integer linear program —
choose disjoint (group, taxi) pairs maximizing served requests and
minimizing total travel distance — solves it exactly at small scale,
and falls back to a heuristic when the instance grows.  We reproduce
both regimes:

* **exact** (small frames): depth-first branch-and-bound over candidate
  pairs, lexicographic objective (served requests ↓cost);
* **heuristic** (large frames): greedy over candidates ordered by cost
  per served request.

Candidate groups come from the same feasibility enumeration as
Algorithm 3, so the comparison isolates the *assignment policy* (pure
company-side cost optimization vs. stability).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

from repro.core.config import DispatchConfig
from repro.core.types import DispatchSchedule, PassengerRequest, RideGroup, Taxi
from repro.dispatch.base import Dispatcher, group_assignment
from repro.dispatch.sharing.std import clip_batch, pack_requests
from repro.geometry.distance import DistanceOracle
from repro.packing.feasibility import GroupMemo

__all__ = ["ILPDispatcher"]


@dataclass(frozen=True, slots=True)
class _Candidate:
    group: RideGroup
    taxi: Taxi
    cost_km: float

    @property
    def served(self) -> int:
        return len(self.group.requests)


class ILPDispatcher(Dispatcher):
    """Company-cost-optimal sharing assignment (exact or heuristic)."""

    name = "ILP"

    #: Cross-frame attributes deliberately left out of :meth:`state_payload`.
    DURABILITY_EXCLUSIONS: ClassVar[dict[str, str]] = {
        "_group_cache": (
            "memo of routed groups and the last group family, a function of "
            "the queued requests; a resumed run rebuilds it cold, bit-identically"
        ),
    }

    def __init__(
        self,
        oracle: DistanceOracle,
        config: DispatchConfig | None = None,
        *,
        exact_limit: int = 200,
        node_limit: int = 200_000,
        pairing_radius_km: float | None = None,
        max_batch: int | None = None,
    ):
        super().__init__(oracle, config)
        self.exact_limit = exact_limit
        self.node_limit = node_limit
        self.pairing_radius_km = pairing_radius_km
        self.max_batch = max_batch
        # Cross-frame group memo, as in STDDispatcher.
        self._group_cache: GroupMemo = GroupMemo()

    def reset_warm_state(self, *, counters: bool = False) -> None:
        """Drop the carried group family; at run start (``counters=True``)
        also the group memo, since request ids only identify requests
        within one run."""
        if counters:
            self._group_cache.clear()
        self._group_cache.drop_family("run-start" if counters else "ladder")

    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        schedule = DispatchSchedule()
        if not taxis or not requests:
            return schedule
        self.checkpoint("ilp:start")
        max_seats = max(t.seats for t in taxis)
        self._group_cache.retain({r.request_id for r in requests})
        batch = clip_batch(requests, taxis, self.config, self.max_batch)
        units = pack_requests(
            batch,
            self.oracle,
            self.config,
            packer="local",
            max_passengers=max_seats,
            pairing_radius_km=self.pairing_radius_km,
            cache=self._group_cache,
        )
        self.checkpoint("ilp:packed")
        candidates = self._candidates(taxis, units)
        self.checkpoint("ilp:candidates")
        if len(candidates) <= self.exact_limit:
            chosen = self._solve_exact(candidates)
        else:
            chosen = self._solve_greedy(candidates)
        for candidate in chosen:
            schedule.add(group_assignment(candidate.taxi, candidate.group))
        return self._validated(schedule, taxis, requests)

    def _candidates(self, taxis: Sequence[Taxi], units: Sequence[RideGroup]) -> list[_Candidate]:
        result: list[_Candidate] = []
        for group in units:
            for taxi in sorted(taxis, key=lambda t: t.taxi_id):
                if group.total_passengers > taxi.seats:
                    continue
                cost = (
                    self.oracle.distance(taxi.location, group.route_start)
                    + group.route_length_km
                )
                result.append(_Candidate(group=group, taxi=taxi, cost_km=cost))
        result.sort(key=lambda c: (c.cost_km / c.served, c.group.group_id, c.taxi.taxi_id))
        return result

    def _solve_greedy(self, candidates: list[_Candidate]) -> list[_Candidate]:
        used_taxis: set[int] = set()
        used_requests: set[int] = set()
        chosen: list[_Candidate] = []
        for candidate in candidates:
            if candidate.taxi.taxi_id in used_taxis:
                continue
            if used_requests & set(candidate.group.request_ids):
                continue
            chosen.append(candidate)
            used_taxis.add(candidate.taxi.taxi_id)
            used_requests.update(candidate.group.request_ids)
        return chosen

    def _solve_exact(self, candidates: list[_Candidate]) -> list[_Candidate]:
        """Branch-and-bound: maximize served requests, then minimize cost."""
        best_served = -1
        best_cost = float("inf")
        best_choice: list[_Candidate] = []
        nodes = 0
        n = len(candidates)
        # Optimistic bound on additional servable requests per suffix.
        suffix_served = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_served[i] = suffix_served[i + 1] + candidates[i].served

        def branch(
            index: int,
            served: int,
            cost: float,
            used_taxis: set[int],
            used_requests: set[int],
            chosen: list[_Candidate],
        ) -> None:
            nonlocal best_served, best_cost, best_choice, nodes
            nodes += 1
            if (served, -cost) > (best_served, -best_cost):
                best_served, best_cost = served, cost
                best_choice = list(chosen)
            if index == n or nodes > self.node_limit:
                return
            if served + suffix_served[index] < best_served:
                return
            candidate = candidates[index]
            if candidate.taxi.taxi_id not in used_taxis and not (
                used_requests & set(candidate.group.request_ids)
            ):
                chosen.append(candidate)
                branch(
                    index + 1,
                    served + candidate.served,
                    cost + candidate.cost_km,
                    used_taxis | {candidate.taxi.taxi_id},
                    used_requests | set(candidate.group.request_ids),
                    chosen,
                )
                chosen.pop()
            branch(index + 1, served, cost, used_taxis, used_requests, chosen)

        branch(0, 0, 0.0, set(), set(), [])
        return best_choice
