"""The event-driven streaming dispatch engine.

Where the batch :class:`~repro.simulation.engine.Simulator` advances a
fixed per-minute frame loop, :class:`StreamingEngine` advances a
discrete-event queue (:mod:`repro.streaming.events`): request arrivals
stream in at their trace times and matching epochs self-schedule every
``frame_length_s`` of the simulation config.  Both are clocks over the
same :class:`~repro.simulation.core.RunCore`, which owns admission,
patience expiry, the idle gather, execution and result assembly.
Matching is NSTD-P, zone-sharded with persistent per-zone warm state
(:mod:`repro.streaming.matcher`) and boundary taxis reconciled by
merging reachable zones into solve groups (:mod:`repro.streaming.zones`).

**Equivalence.**  The engine takes the batch engine's inputs, so its
epoch *is* the batch frame: it is *bit-identical* to the cold
``NSTDDispatcher`` batch run under the same config — epochs fire at the
batch frame times by the same float accumulation, arrivals pop before
the epoch at their timestamp (inclusive admission), the zone-group
union equals the global stable matching (component decomposition +
warm ≡ cold), and the core executes the pairs in ascending request id —
the batch order.  A shorter ``frame_length_s`` reacts to demand sooner,
exactly as a batch run at that finer frame length would (DESIGN.md
§14.4).

Repositioning, the degradation ladder, durability and the stability
auditor remain batch-engine features.  The result is the batch
engine's :class:`~repro.simulation.engine.SimulationResult` with the
streaming counters (events, per-zone queue depths, boundary
reconciliations, zone groups) merged into ``dispatch_telemetry``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.clock import telemetry_clock
from repro.core.config import SimulationConfig
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.distance import DistanceOracle
from repro.simulation.core import RunCore, SimulationResult
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
    """Run the zone-sharded streaming NSTD-P dispatcher over one trace.

    Takes the batch :class:`~repro.simulation.engine.Simulator`'s
    inputs: the epoch length is ``sim_config.frame_length_s`` and the
    matcher runs at ``sim_config.dispatch``.  ``overrun_s`` bounds how
    far past the horizon the run may go while the queue drains.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        sim_config: SimulationConfig | None = None,
        *,
        overrun_s: float = 6.0 * 3600.0,
    ):
        self.oracle = oracle
        self.sim_config = sim_config if sim_config is not None else SimulationConfig()
        self.overrun_s = overrun_s
        self.name = "NSTD-P-streaming"

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
        matcher = ZoneMatcher(self.oracle, config.dispatch)
        matcher.reset(counters=True)
        core = RunCore(taxis, requests, self.oracle, config, matcher.config)

        epoch = float(config.frame_length_s)
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
            rows = core.queue_rows()
            queue_length = len(rows)
            if queue_length:
                idle = core.idle()
                idle_taxis = len(idle)
            else:
                idle, idle_taxis = [], core.idle_count()
            dispatched = (0, 0)
            dispatch_ms = 0.0
            if idle:
                batch = core.batch(rows)
                dispatch_start = telemetry_clock()
                report = matcher.match_epoch(
                    idle,
                    batch,
                    rows=rows,
                    columns=core.columns,
                    taxi_xy=core.agent_xy[core.idle_rows],
                )
                dispatch_ms = (telemetry_clock() - dispatch_start) * 1e3
                plan = report.plan
                if plan is not None:
                    boundary_reconciliations += plan.boundary_merges
                    zones_active_max = max(zones_active_max, plan.zones_occupied)
                zone_eff = matcher.zone_km_effective
                if zone_eff:
                    try:
                        depths = zone_queue_depths(core.columns.zone_keys(zone_eff)[rows])
                    except ValueError:
                        depths = None  # an unbucketable pickup: no depth sample
                    if depths is not None and depths.size:
                        zone_queue_depth_max = max(zone_queue_depth_max, int(depths.max()))
                        zones_pending_max = max(zones_pending_max, int(depths.size))
                # Ascending request id — the order the batch NSTD path
                # emits (sorted matching pairs) and executes.
                dispatched = core.execute_pairs(sorted(report.pairs.items()))

            core.record_frame(queue_length, idle_taxis, dispatched, abandoned, dispatch_ms)
            # Past the horizon no new requests arrive; stop as soon as
            # the queue drains (the batch engine's exit condition).
            if core.time_s >= config.horizon_s and core.drained:
                break
            core.advance(epoch)
            if core.time_s > deadline:
                break
            events.push(core.time_s, PRIORITY_MATCHING_EPOCH, MatchingEpoch())

        telemetry: dict[str, float | int] = dict(matcher.run_telemetry())
        telemetry.update(core.cache.stats())
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
