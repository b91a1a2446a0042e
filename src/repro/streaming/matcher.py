"""Per-zone persistent NSTD matcher state for the streaming engine.

Each zone group (:mod:`repro.streaming.zones`) is one independent
stable-matching problem, solved with the standard cold builders
(:func:`~repro.matching.sharding.solve_shard`) or — when any of the
group's zone keys recurs — resumed warm through the frame solver
(:func:`~repro.matching.warm_frame.warm_frame_solve`) on the group's
carried :class:`~repro.matching.warm_frame.FrameSolveState`.  A
group's state is filed under *every* zone key it spans, so zone churn
(a drained zone, a merged neighbour) moves the lookup, not the state.

**Why zone-keyed warm reuse is sound.**  A carried state may be
resumed against *any* later entity set, not just the exact group that
seeded it, because the warm solver's two preconditions hold for every
such pairing:

1. *Retention only by identity.*  An entity is classified retained
   only if the same live object recurs (CPython address held by the
   state).  Entities that migrated in from another zone, or were never
   presented, are simply classified new — the direction the solver
   proves always sound.
2. *Retained × retained is unacceptable.*  Retained entities were
   unmatched in the seeding group's stable matching and have not moved
   (idle taxis memoize their snapshot on the location object; queued
   requests are frozen), and any two entities unmatched by one stable
   solve are mutually unacceptable — they would have formed a blocking
   pair.  So the retained block of *this* epoch's group contains no
   acceptable pair, exactly the warm solver's edge-turnover theorem.

Together with the warm ≡ cold equivalence of the frame solver and the
component-decomposition theorem, every epoch's union of group
matchings is bit-identical to the global cold solve — warm hits, cold
misses, and anchor drift alike.

**Per-zone degradation.**  Under an epoch :class:`~repro.resilience.
budget.FrameBudget`, the groups (smallest first) share one budget
anchored at the epoch start, each extended to its own cumulative slice
(:func:`~repro.resilience.budget.zone_budget_slices`, work-weighted).
A group whose slice has already elapsed at its start degrades to the
greedy ladder rung for *its entities only*; later groups still get
their own (later) deadlines, so one hot zone cannot drag the city
down.  Degraded groups never seed warm state (their matching is not
stable) and their stale carried state is dropped.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import FrameBudgetExceededError, WarmStartError
from repro.core.types import PassengerRequest, Taxi
from repro.dispatch.nonsharing.greedy import GreedyNearestDispatcher
from repro.geometry.batch import as_point_array
from repro.geometry.distance import DistanceOracle
from repro.matching.sharding import (
    _check_global_ids,
    acceptability_radii,
    default_cell_km,
    solve_shard,
)
from repro.matching.warm_frame import (
    FrameSolveState,
    frame_state_from_cold,
    warm_frame_solve,
)
from repro.resilience.budget import FrameBudget, zone_budget_slices
from repro.streaming.zones import (
    EpochZonePlan,
    ZoneGroup,
    coarse_epoch_plan,
    plan_epoch_zones,
)

__all__ = ["EpochMatchReport", "ZoneMatcher"]


@dataclass(slots=True)
class EpochMatchReport:
    """What one epoch's zone-sharded solve produced.

    ``pairs`` maps request id → taxi id across all groups; executing
    them in ascending request-id order reproduces the batch engine's
    assignment order.  The group counters distinguish warm resumes,
    cold solves and budget degradations; ``zones_degraded`` counts the
    *zones* inside degraded groups, the per-zone degradation metric the
    streaming telemetry reports.
    """

    pairs: dict[int, int] = field(default_factory=dict)
    plan: EpochZonePlan | None = None
    groups_solved: int = 0
    warm_groups: int = 0
    cold_groups: int = 0
    degraded_groups: int = 0
    zones_degraded: int = 0


class ZoneMatcher:
    """Persistent per-zone NSTD matcher, warm across matching epochs.

    One instance lives for one streaming run; it owns a dict of
    zone-keyed :class:`~repro.matching.warm_frame.FrameSolveState`
    (one shared entry per zone a group spans) and replaces it wholesale
    every epoch (groups that vanished this epoch drop their state —
    zone churn must not pin dead objects).

    ``optimize_for`` selects the NSTD orientation (``"passenger"`` or
    ``"taxi"``); ``zone_km`` fixes the zone grid edge, or ``None`` to
    derive it from the first epoch's median acceptability radius and
    freeze it for the run (zones must not move between epochs, or the
    zone keys would not be persistent identities).  ``replan_every``
    bounds how many epochs a single-component city may reuse the cheap
    coarse city-wide plan before the full θ-ball component sweep runs
    again (fragmenting cities replan every epoch; see
    :func:`~repro.streaming.zones.coarse_epoch_plan`).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        config: DispatchConfig | None = None,
        *,
        optimize_for: str = "passenger",
        alpha_by_taxi: Mapping[int, float] | None = None,
        warm_start: bool = True,
        zone_km: float | None = None,
        replan_every: int = 8,
    ):
        if optimize_for not in ("passenger", "taxi"):
            raise ValueError(
                f"optimize_for must be 'passenger' or 'taxi', got {optimize_for!r}"
            )
        if zone_km is not None and zone_km <= 0.0:
            raise ValueError(f"zone_km must be positive, got {zone_km}")
        if replan_every < 1:
            raise ValueError(f"replan_every must be >= 1, got {replan_every}")
        self.oracle = oracle
        self.config = config if config is not None else DispatchConfig()
        self.optimize_for = optimize_for
        self.alpha_by_taxi = dict(alpha_by_taxi) if alpha_by_taxi else None
        self.warm_start = warm_start
        self.zone_km = zone_km
        self.replan_every = replan_every
        self._zone_km_effective: float | None = zone_km
        self._states: dict[int, FrameSolveState] = {}
        self._telemetry: dict[str, float | int] = {}
        self._epoch_index = 0
        self._last_full_groups: int | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def zone_km_effective(self) -> float | None:
        """The frozen zone edge, once the first epoch derived/adopted it."""
        return self._zone_km_effective

    def reset(self, *, counters: bool = False) -> None:
        """Drop all carried zone states (and optionally the counters).

        The engine calls this at run start; a matcher reused across
        runs would otherwise resume states describing another world.
        A derived ``zone_km`` is dropped too and re-derived next run.
        """
        self._states = {}
        self._zone_km_effective = self.zone_km
        self._epoch_index = 0
        self._last_full_groups = None
        if counters:
            self._telemetry = {}

    def run_telemetry(self) -> dict[str, float | int]:
        """Counters since the last full reset, for ``perf_stats()``.

        Uses the canonical warm-start key names (``warm_frames`` /
        ``cold_frames`` / ``pairs_scored_warm`` / ``full_pairs_warm``)
        counted per *group solve*, so the derived ``warm_hit_rate`` and
        ``warm_rebuild_fraction`` of
        :meth:`~repro.simulation.engine.SimulationResult.perf_stats`
        read as group-level rates on streaming runs.
        """
        return dict(self._telemetry)

    def _bump(self, key: str, amount: float | int = 1) -> None:
        self._telemetry[key] = self._telemetry.get(key, 0) + amount

    # -- the epoch solve ---------------------------------------------------

    def _resolve_zone_km(self, trip_km: np.ndarray, alpha_max: float) -> float:
        """The run's zone edge, deriving and freezing it on first use."""
        if self._zone_km_effective is None:
            radii = acceptability_radii(trip_km, self.config, alpha_max=alpha_max)
            self._zone_km_effective = default_cell_km(radii)
        return self._zone_km_effective

    def _solve_group_cold(
        self,
        group_taxis: list[Taxi],
        group_requests: list[PassengerRequest],
        group_trip: np.ndarray,
    ) -> tuple[dict[int, int], FrameSolveState | None]:
        """One group through the standard cold builders (+ state seed)."""
        matched = solve_shard(
            group_taxis,
            group_requests,
            self.oracle,
            self.config,
            optimize_for=self.optimize_for,
            alpha_by_taxi=self.alpha_by_taxi,
            trip_km=group_trip,
        )
        state = (
            frame_state_from_cold(
                group_taxis,
                group_requests,
                matched,
                trip=group_trip,
                config=self.config,
                alpha_by_taxi=self.alpha_by_taxi,
            )
            if self.warm_start
            else None
        )
        return dict(matched.pairs), state

    def match_epoch(
        self,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        *,
        trip_km: np.ndarray,
        budget: FrameBudget | None = None,
        on_new_trips: Callable[[np.ndarray, np.ndarray], None] | None = None,
    ) -> EpochMatchReport:
        """Solve one matching epoch zone group by zone group.

        ``trip_km`` is the epoch's per-request trip vector in request
        order (the engine reads it from the frame cache, exact by
        contract).  ``budget`` is the epoch's frame budget, freshly
        anchored at the epoch start; the groups consume it in
        work-weighted cumulative slices (see module docstring).
        ``on_new_trips`` receives the ids/trips of requests a warm
        group scored for the first time, so the engine's trip memo
        stays primed on warm epochs exactly as on cold ones.

        Returns the epoch's union matching and group accounting.  The
        union over groups equals the global NSTD solve of the same
        inputs bit for bit — warm or cold, degraded groups excepted
        (their entities get the greedy answer instead, and their
        carried state is dropped).
        """
        report = EpochMatchReport()
        if not taxis or not requests:
            # Nothing solvable; carried states stay put, exactly like a
            # warm dispatcher skipping an empty frame (only arrivals
            # can happen before the next non-empty epoch, so churn
            # classification against them stays sound).
            return report
        _, request_ids = _check_global_ids(taxis, requests)
        trip = np.asarray(trip_km, dtype=np.float64)
        alpha_max = float(self.config.alpha)
        if self.alpha_by_taxi:
            alpha_max = max(alpha_max, max(float(a) for a in self.alpha_by_taxi.values()))
        taxi_xy = as_point_array([t.location for t in taxis], check_finite=False)
        pick_xy = as_point_array([r.pickup for r in requests], check_finite=False)
        zone_km = self._resolve_zone_km(trip, alpha_max)
        # Replan policy: the full θ-ball component sweep runs on the
        # first epoch, every ``replan_every``-th epoch, and on every
        # epoch while the city actually fragments (last full plan had
        # more than one group — decomposition is paying for itself).
        # In between, on single-component cities, the coarse city-wide
        # plan is substituted: exact by construction, and it skips the
        # component sweep that would dominate the epoch on such cities.
        full = (
            self._last_full_groups is None
            or self._last_full_groups > 1
            or self._epoch_index % self.replan_every == 0
        )
        self._epoch_index += 1
        if full:
            plan = plan_epoch_zones(
                taxi_xy,
                pick_xy,
                trip,
                request_ids,
                self.oracle,
                self.config,
                alpha_max=alpha_max,
                zone_km=zone_km,
            )
            if plan.degenerate_reason is None:
                self._last_full_groups = len(plan.groups)
        else:
            plan = coarse_epoch_plan(taxi_xy, pick_xy, zone_km)
        report.plan = plan
        self._bump("zone_epochs")
        if plan.coarse:
            self._bump("zone_coarse_epochs")
        else:
            self._bump("zone_boundary_reconciliations", plan.boundary_merges)
        if plan.degenerate_reason is None and not plan.coarse:
            self._bump("zone_decomposed_epochs")
            self._bump("zone_groups", len(plan.groups))
        epoch_deadline_s = budget.duration_s if budget is not None else 0.0
        slices = (
            zone_budget_slices(epoch_deadline_s, [g.pair_count for g in plan.groups])
            if budget is not None
            else None
        )
        next_states: dict[int, FrameSolveState] = {}
        claimed: set[int] = set()
        for position, group in enumerate(plan.groups):
            group_taxis = [taxis[i] for i in group.taxi_rows.tolist()]
            group_requests = [requests[j] for j in group.request_rows.tolist()]
            group_trip = trip[group.request_rows]
            if budget is not None and slices is not None:
                budget.extend_to(slices[position])
                try:
                    budget.checkpoint("zone:start")
                except FrameBudgetExceededError:
                    self._degrade_group(group, group_taxis, group_requests, report)
                    continue
            report.groups_solved += 1
            # Probe every zone key the group spans, smallest first: a
            # group whose composition shifted (zone drained, neighbour
            # merged in) still finds its carried state under any
            # surviving key.  Each state object is claimed at most once
            # per epoch — if one prior group split in two, the second
            # fragment solves cold rather than racing for the state.
            state: FrameSolveState | None = None
            if self.warm_start:
                for key in group.zone_keys:
                    candidate = self._states.get(key)
                    if candidate is not None and id(candidate) not in claimed:
                        state = candidate
                        claimed.add(id(candidate))
                        break
            pairs: dict[int, int] | None = None
            if state is not None:
                try:
                    matching, _, _, build_stats, new_state = warm_frame_solve(
                        state,
                        group_taxis,
                        group_requests,
                        self.oracle,
                        self.config,
                        optimize_for=self.optimize_for,
                        alpha_by_taxi=self.alpha_by_taxi,
                        on_new_trips=on_new_trips,
                    )
                except WarmStartError:
                    self._bump("warm_fallbacks")
                else:
                    pairs = dict(matching.pairs)
                    for key in group.zone_keys:
                        next_states[key] = new_state
                    report.warm_groups += 1
                    self._bump("warm_frames")
                    self._bump("pairs_scored_warm", build_stats.pairs_scored)
                    self._bump("full_pairs_warm", build_stats.full_pairs)
            if pairs is None:
                pairs, seeded = self._solve_group_cold(
                    group_taxis, group_requests, group_trip
                )
                if seeded is not None:
                    for key in group.zone_keys:
                        next_states[key] = seeded
                report.cold_groups += 1
                self._bump("cold_frames")
            report.pairs.update(pairs)
        if budget is not None:
            # Hand the budget back at its full epoch deadline: the
            # engine may still checkpoint after the solve.
            budget.extend_to(epoch_deadline_s)
        # Wholesale replacement prunes every anchor that did not recur:
        # stale states must not pin last epoch's objects alive, and a
        # degraded group's state (stale or fresh) is dropped with them.
        self._states = next_states
        return report

    def _degrade_group(
        self,
        group: ZoneGroup,
        group_taxis: list[Taxi],
        group_requests: list[PassengerRequest],
        report: EpochMatchReport,
    ) -> None:
        """Answer one over-budget group with the greedy ladder rung.

        The fallback dispatcher is fresh — no frame cache, no budget —
        so its checkpoints are no-ops and it cannot re-raise; the
        group's entities get a valid (merely unstable) answer and its
        warm state is implicitly dropped (never seeded this epoch).
        """
        fallback = GreedyNearestDispatcher(self.oracle, self.config)
        degraded = fallback.dispatch(group_taxis, group_requests)
        for assignment in degraded.assignments:
            report.pairs[assignment.request_ids[0]] = assignment.taxi_id
        report.degraded_groups += 1
        report.zones_degraded += group.zone_count
        self._bump("zone_groups_degraded")
        self._bump("zones_degraded", group.zone_count)
