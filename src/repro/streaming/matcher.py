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

1. *Retention only by id and bit-equal facts.*  An entity is
   classified retained only if its id is among the state's unmatched
   ids and its fact row (position, seats or party, trip, α) is
   bit-equal to the one the state carried.  Entities that migrated in
   from another zone, were never presented, or changed are simply
   classified new — the direction the solver proves always sound.
2. *Retained × retained is unacceptable.*  Retained entities were
   unmatched in the seeding group's stable matching and present the
   same facts, and any two entities unmatched by one stable solve are
   mutually unacceptable — they would have formed a blocking pair.
   Acceptability is a function of the two fact rows, so the retained
   block of *this* epoch's group contains no acceptable pair, exactly
   the warm solver's edge-turnover theorem.

Together with the warm ≡ cold equivalence of the frame solver and the
component-decomposition theorem, every epoch's union of group
matchings is bit-identical to the global cold solve — warm hits, cold
misses, and anchor drift alike.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import WarmStartError
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.distance import DistanceOracle
from repro.matching.sharding import (
    _check_global_ids,
    acceptability_radii,
    default_cell_km,
    solve_shard,
)
from repro.matching.warm_frame import (
    FrameOperands,
    FrameSolveState,
    frame_state_from_cold,
    warm_frame_solve,
)
from repro.streaming.zones import EpochZonePlan, coarse_epoch_plan, plan_epoch_zones

if TYPE_CHECKING:
    from repro.simulation.core import RequestColumns

__all__ = ["EpochMatchReport", "ZoneMatcher"]

#: A single-component city reuses the coarse city-wide plan for at most
#: this many epochs before the full θ-ball component sweep runs again.
REPLAN_EVERY = 8


@dataclass(slots=True)
class EpochMatchReport:
    """What one epoch's zone-sharded solve produced.

    ``pairs`` maps request id → taxi id across all groups; executing
    them in ascending request-id order reproduces the batch engine's
    assignment order.  Every group is either resumed warm or solved
    cold, so ``warm_groups + cold_groups`` is the number of groups
    solved.
    """

    pairs: dict[int, int] = field(default_factory=dict)
    plan: EpochZonePlan | None = None
    warm_groups: int = 0
    cold_groups: int = 0


class ZoneMatcher:
    """Persistent per-zone NSTD-P matcher, warm across matching epochs.

    One instance lives for one streaming run; it owns a dict of
    zone-keyed :class:`~repro.matching.warm_frame.FrameSolveState`
    (one shared entry per zone a group spans) and replaces it wholesale
    every epoch (groups that vanished this epoch drop their state —
    zone churn must not keep dead states alive).

    The zone grid edge is derived from the first epoch's median
    acceptability radius and frozen for the run (zones must not move
    between epochs, or the zone keys would not be persistent
    identities).  A single-component city coasts on the cheap coarse
    city-wide plan for at most :data:`REPLAN_EVERY` epochs between full
    θ-ball component sweeps (fragmenting cities replan every epoch; see
    :func:`~repro.streaming.zones.coarse_epoch_plan`).
    """

    def __init__(self, oracle: DistanceOracle, config: DispatchConfig | None = None):
        self.oracle = oracle
        self.config = config if config is not None else DispatchConfig()
        self._zone_km_effective: float | None = None
        self._states: dict[int, FrameSolveState] = {}
        self._telemetry: dict[str, float | int] = {}
        self._epoch_index = 0
        self._last_full_groups: int | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def zone_km_effective(self) -> float | None:
        """The frozen zone edge, once the first epoch derived it."""
        return self._zone_km_effective

    def reset(self, *, counters: bool = False) -> None:
        """Drop all carried zone states (and optionally the counters).

        The engine calls this at run start; a matcher reused across
        runs would otherwise resume states describing another world.
        The derived zone edge is dropped too and re-derived next run.
        """
        self._states = {}
        self._zone_km_effective = None
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
        group_taxis: Sequence[Taxi],
        group_requests: Sequence[PassengerRequest],
        group_frame: FrameOperands,
    ) -> tuple[dict[int, int], FrameSolveState]:
        """One group through the standard cold builders (+ state seed)."""
        matched = solve_shard(
            group_taxis,
            group_requests,
            self.oracle,
            self.config,
            trip_km=group_frame.trip_km,
        )
        return dict(matched.pairs), frame_state_from_cold(group_frame, matched)

    def match_epoch(
        self,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        *,
        frame: FrameOperands,
        rows: np.ndarray,
        columns: RequestColumns,
    ) -> EpochMatchReport:
        """Solve one matching epoch zone group by zone group.

        ``frame`` holds the epoch's :class:`~repro.matching.warm_frame.
        FrameOperands` — ids, positions, seats, α, pickups, party sizes
        and trips, row for row the ``taxis`` and ``requests`` lists —
        which the engine gathers from its run core's columns
        (:meth:`~repro.simulation.core.RunCore.frame_operands`); each
        group's warm solve reads a slice of them.  ``columns`` holds the
        run's per-request facts as run-long columns
        (:class:`~repro.simulation.core.RequestColumns`) and ``rows``
        are the epoch's rows in them, one per request in request order:
        the coarse plan reads the epoch's zone keys as a gather over
        ``rows``.  So no epoch converts a point, measures a trip or
        walks an entity for a fact; only a group solved cold reads its
        objects.

        Returns the epoch's union matching and group accounting.  The
        union over groups equals the global NSTD-P solve of the same
        inputs bit for bit, warm or cold.  Raises ``ValueError`` when an
        operand's length differs from its list's.
        """
        report = EpochMatchReport()
        if not taxis or not requests:
            # Nothing solvable; carried states stay put, exactly like a
            # warm dispatcher skipping an empty frame (only arrivals
            # can happen before the next non-empty epoch, so churn
            # classification against them stays sound).
            return report
        if (
            len(rows) != len(requests)
            or frame.request_ids.size != len(requests)
            or frame.taxi_ids.size != len(taxis)
        ):
            raise ValueError("epoch operands do not match the taxi and request lists")
        _, request_ids = _check_global_ids(frame.taxi_ids, frame.request_ids)
        taxi_xy, trip = frame.taxi_xy, frame.trip_km
        alpha_max = float(self.config.alpha)
        zone_km = self._resolve_zone_km(trip, alpha_max)
        # Replan policy: the full θ-ball component sweep runs on the
        # first epoch, every ``REPLAN_EVERY``-th epoch, and on every
        # epoch while the city actually fragments (last full plan had
        # more than one group — decomposition is paying for itself).
        # In between, on single-component cities, the coarse city-wide
        # plan is substituted: exact by construction, and it skips the
        # component sweep that would dominate the epoch on such cities.
        full = (
            self._last_full_groups is None
            or self._last_full_groups > 1
            or self._epoch_index % REPLAN_EVERY == 0
        )
        self._epoch_index += 1
        if full:
            plan = plan_epoch_zones(
                taxi_xy,
                frame.pickup_xy,
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
            plan = coarse_epoch_plan(taxi_xy, columns.zone_keys(zone_km)[rows], zone_km)
        report.plan = plan
        self._bump("zone_epochs")
        if plan.coarse:
            self._bump("zone_coarse_epochs")
        else:
            self._bump("zone_boundary_reconciliations", plan.boundary_merges)
        if plan.degenerate_reason is None and not plan.coarse:
            self._bump("zone_decomposed_epochs")
            self._bump("zone_groups", len(plan.groups))
        next_states: dict[int, FrameSolveState] = {}
        claimed: set[int] = set()
        for group in plan.groups:
            whole = (
                group.taxi_rows.size == len(taxis) and group.request_rows.size == len(requests)
            )
            # One group holding every row holds them in order: the
            # epoch's own operands are the group's.
            group_frame = frame if whole else frame.take(group.taxi_rows, group.request_rows)
            # Probe every zone key the group spans, smallest first: a
            # group whose composition shifted (zone drained, neighbour
            # merged in) still finds its carried state under any
            # surviving key.  Each state object is claimed at most once
            # per epoch — if one prior group split in two, the second
            # fragment solves cold rather than racing for the state.
            state: FrameSolveState | None = None
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
                        state, group_frame, self.oracle, self.config
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
                if whole:
                    group_taxis, group_requests = taxis, requests
                else:
                    group_taxis = [taxis[i] for i in group.taxi_rows.tolist()]
                    group_requests = [requests[j] for j in group.request_rows.tolist()]
                pairs, seeded = self._solve_group_cold(group_taxis, group_requests, group_frame)
                for key in group.zone_keys:
                    next_states[key] = seeded
                report.cold_groups += 1
                self._bump("cold_frames")
            report.pairs.update(pairs)
        # Wholesale replacement prunes every anchor that did not recur:
        # stale states must not outlive their zones.
        self._states = next_states
        return report
