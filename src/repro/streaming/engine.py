"""The event-driven streaming dispatch engine.

Where the batch :class:`~repro.simulation.engine.Simulator` advances a
fixed per-minute frame loop, :class:`StreamingEngine` advances a
discrete-event queue (:mod:`repro.streaming.events`): request arrivals
stream in at their trace times and matching epochs self-schedule every
``epoch_length_s``.  Both are clocks over the same
:class:`~repro.simulation.core.RunCore`, which owns admission, patience
expiry, the idle gather, execution and result assembly.  Matching is
zone-sharded with persistent per-zone warm state
(:mod:`repro.streaming.matcher`), boundary taxis reconciled by merging
reachable zones into solve groups (:mod:`repro.streaming.zones`), and an
optional per-epoch :class:`~repro.resilience.budget.FrameBudget` sliced
per zone group.

**Equivalence.**  At epoch length ``e`` the engine is *bit-identical*
to the cold ``NSTDDispatcher`` batch run at frame length ``e``: epochs
fire at the batch frame times by the same float accumulation, arrivals
pop before the epoch at their timestamp (inclusive admission), the
zone-group union equals the global stable matching (component
decomposition + warm ≡ cold), and the core executes the pairs in
ascending request id — the batch order.  The default epoch is the frame
length, which the city-day benchmark asserts before timing the
streaming row; a shorter epoch reacts to demand sooner, exactly as a
batch run at that finer frame length would (DESIGN.md §14.5).

Repositioning, the degradation ladder, durability and the stability
auditor remain batch-engine features; the streaming engine's resilience
story is the per-zone budget (one hot zone degrades alone).  The result
is the batch engine's :class:`~repro.simulation.engine.SimulationResult`
with the streaming counters (events, per-zone queue depths, boundary
reconciliations, zone groups) merged into ``dispatch_telemetry``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.core.config import SimulationConfig
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.batch import as_point_array
from repro.geometry.distance import DistanceOracle
from repro.resilience.budget import FrameBudget
from repro.simulation.core import RunCore, SimulationResult, telemetry_clock
from repro.streaming.events import (
    PRIORITY_MATCHING_EPOCH,
    PRIORITY_REQUEST_ARRIVAL,
    EventQueue,
    MatchingEpoch,
    RequestArrival,
)
from repro.streaming.matcher import ZoneMatcher
from repro.streaming.zones import zone_queue_depths

__all__ = ["StreamingEngine"]


class StreamingEngine:
    """Run the zone-sharded streaming dispatcher over one trace.

    ``epoch_length_s`` defaults to the simulation config's frame
    length — the proven batch-equivalence mode.  ``zone_km`` fixes the
    persistent zone grid edge (``None`` derives it from the first
    epoch's median acceptability radius and freezes it for the run);
    ``zone_replan_every`` bounds how long a single-component city may
    coast on the coarse city-wide plan between full component sweeps.
    ``warm_zones`` carries per-zone solver state across epochs;
    ``epoch_budget_s`` installs a per-epoch frame budget sliced per
    zone group (``budget_clock`` injects a virtual clock for tests,
    like :class:`~repro.resilience.budget.FrameBudget` itself).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        sim_config: SimulationConfig | None = None,
        *,
        optimize_for: str = "passenger",
        alpha_by_taxi: Mapping[int, float] | None = None,
        epoch_length_s: float | None = None,
        zone_km: float | None = None,
        zone_replan_every: int = 8,
        warm_zones: bool = True,
        epoch_budget_s: float | None = None,
        budget_clock: Callable[[], float] | None = None,
        overrun_s: float = 6.0 * 3600.0,
    ):
        self.oracle = oracle
        self.sim_config = sim_config if sim_config is not None else SimulationConfig()
        if epoch_length_s is not None and epoch_length_s <= 0.0:
            raise ValueError(f"epoch_length_s must be positive, got {epoch_length_s}")
        if epoch_budget_s is not None and epoch_budget_s < 0.0:
            raise ValueError(f"epoch_budget_s must be non-negative, got {epoch_budget_s}")
        if optimize_for not in ("passenger", "taxi"):
            raise ValueError(
                f"optimize_for must be 'passenger' or 'taxi', got {optimize_for!r}"
            )
        self.optimize_for = optimize_for
        self.alpha_by_taxi = dict(alpha_by_taxi) if alpha_by_taxi else None
        self.epoch_length_s = (
            float(epoch_length_s)
            if epoch_length_s is not None
            else float(self.sim_config.frame_length_s)
        )
        self.zone_km = zone_km
        self.zone_replan_every = zone_replan_every
        self.warm_zones = warm_zones
        self.epoch_budget_s = epoch_budget_s
        self.budget_clock = budget_clock
        self.overrun_s = overrun_s
        self.name = f"{'NSTD-T' if optimize_for == 'taxi' else 'NSTD-P'}-streaming"

    def _make_epoch_budget(self) -> FrameBudget | None:
        """A fresh per-epoch budget anchored now, or ``None`` when unset."""
        if self.epoch_budget_s is None:
            return None
        if self.budget_clock is not None:
            return FrameBudget(self.epoch_budget_s, clock=self.budget_clock)
        return FrameBudget(self.epoch_budget_s)

    def run(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> SimulationResult:
        """Simulate until every request resolves or the horizon+overrun ends.

        Same contract as :meth:`repro.simulation.engine.Simulator.run`
        minus the batch-only collaborators; the returned
        :class:`~repro.simulation.engine.SimulationResult` carries the
        streaming counters in ``dispatch_telemetry``.
        """
        config = self.sim_config
        matcher = ZoneMatcher(
            self.oracle,
            config.dispatch,
            optimize_for=self.optimize_for,
            alpha_by_taxi=self.alpha_by_taxi,
            warm_start=self.warm_zones,
            zone_km=self.zone_km,
            replan_every=self.zone_replan_every,
        )
        matcher.reset(counters=True)
        core = RunCore(taxis, requests, self.oracle, config, matcher.config)
        cache = core.cache

        epoch = self.epoch_length_s
        deadline = config.horizon_s + self.overrun_s
        boundary_reconciliations = 0
        zones_active_max = 0
        zones_pending_max = 0
        zone_queue_depth_max = 0

        events = EventQueue()
        first = core.next_arrival
        if first is not None:
            events.push(first.request_time_s, PRIORITY_REQUEST_ARRIVAL, RequestArrival(first))
        core.advance(epoch)
        events.push(core.time_s, PRIORITY_MATCHING_EPOCH, MatchingEpoch())

        while events:
            _, event = events.pop()
            if isinstance(event, RequestArrival):
                # Arrivals are chained lazily: admitting this request
                # (the event's own) schedules the next in trace order.
                core.admit_next()
                nxt = core.next_arrival
                if nxt is not None:
                    events.push(
                        nxt.request_time_s, PRIORITY_REQUEST_ARRIVAL, RequestArrival(nxt)
                    )
                continue

            # -- matching epoch at core.time_s ----------------------------
            abandoned = core.expire()
            queue_length = len(core.queue)
            idle = core.idle()
            dispatched = (0, 0)
            dispatch_ms = 0.0
            if core.queue and idle:
                batch = list(core.queue.values())
                dispatch_start = telemetry_clock()
                trip = cache.trip_km(batch)
                report = matcher.match_epoch(
                    idle,
                    batch,
                    trip_km=trip,
                    budget=self._make_epoch_budget(),
                    on_new_trips=cache.prime_trip_km,
                )
                dispatch_ms = (telemetry_clock() - dispatch_start) * 1e3
                plan = report.plan
                if plan is not None:
                    boundary_reconciliations += plan.boundary_merges
                    zones_active_max = max(zones_active_max, plan.zones_occupied)
                zone_eff = matcher.zone_km_effective
                if zone_eff:
                    try:
                        depths = zone_queue_depths(
                            as_point_array(
                                [r.pickup for r in batch], check_finite=False
                            ),
                            zone_eff,
                        )
                    except ValueError:
                        depths = None  # unbucketable coordinates: no depth sample
                    if depths is not None and depths.size:
                        zone_queue_depth_max = max(zone_queue_depth_max, int(depths.max()))
                        zones_pending_max = max(zones_pending_max, int(depths.size))
                # Ascending request id — the order the batch NSTD path
                # emits (sorted matching pairs) and executes.
                dispatched = core.execute_pairs(sorted(report.pairs.items()))

            core.record_frame(queue_length, len(idle), dispatched, abandoned, dispatch_ms)
            # Past the horizon no new requests arrive; stop as soon as
            # the queue drains (the batch engine's exit condition).
            if core.time_s >= config.horizon_s and core.drained:
                break
            core.advance(epoch)
            if core.time_s > deadline:
                break
            events.push(core.time_s, PRIORITY_MATCHING_EPOCH, MatchingEpoch())

        telemetry: dict[str, float | int] = dict(matcher.run_telemetry())
        telemetry.update(cache.stats())
        telemetry.update(
            {
                "events_processed": events.popped,
                "events_arrivals": core.arrival_cursor,
                "events_epochs": core.frames_run,
                "epochs_run": core.frames_run,
                "epoch_length_s": epoch,
                "boundary_reconciliations": boundary_reconciliations,
                "zones_active_max": zones_active_max,
                "zones_pending_max": zones_pending_max,
                "zone_queue_depth_max": zone_queue_depth_max,
            }
        )
        zone_eff = matcher.zone_km_effective
        if zone_eff is not None:
            telemetry["zone_km"] = zone_eff

        return core.result(self.name, epoch, deadline, telemetry)
