"""The discrete-time, frame-batched dispatch simulator.

Exactly the paper's setup (Section III-A / VI-A): time is cut into
frames (one minute by default); at each frame boundary the dispatcher
sees the currently idle taxis and all pending requests and returns a
schedule; dispatched taxis drive their plan at constant speed and
return to the idle pool when the last dropoff completes.  Requests not
dispatched remain queued for later frames ("passengers will wait for
nearby busy taxis") until their patience expires.

The engine is deterministic given its inputs; all randomness lives in
the trace generators.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.errors import (
    EnumerationBudgetError,
    FrameBudgetExceededError,
    ReproError,
    SimulationError,
    TransientFaultError,
)
from repro.core.types import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher, PackedSingleSchedule
from repro.dispatch.scoring import assignment_metrics
from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point
from repro.resilience.auditor import StabilityAuditor
from repro.resilience.checkpoint import DurabilityManager
from repro.resilience.journal import FrameDigest, frame_pairs_crc
from repro.resilience.ladder import ResiliencePolicy, Rung
from repro.resilience.report import (
    DROPPED_RUNG,
    FrameResilienceRecord,
    ResilienceReport,
    StabilityAuditRecord,
    StabilityAuditReport,
)
from repro.simulation.events import AssignmentRecord, FrameStats, RequestOutcome, TaxiStats
from repro.simulation.frame_cache import FrameDistanceCache
from repro.simulation.repositioning import RepositioningPolicy
from repro.simulation.taxi_state import TaxiAgent

__all__ = ["Simulator", "SimulationResult"]


@dataclass(slots=True)
class SimulationResult:
    """Everything a simulation produced, ready for analysis."""

    dispatcher_name: str
    outcomes: list[RequestOutcome]
    assignments: list[AssignmentRecord]
    frames_run: int
    final_time_s: float
    taxi_stats: dict[int, TaxiStats] = field(default_factory=dict)
    frame_stats: list[FrameStats] = field(default_factory=list)
    frame_length_s: float = 60.0
    #: Per-frame degradation-ladder accounting; ``None`` unless the run
    #: had a :class:`~repro.resilience.ladder.ResiliencePolicy` installed.
    resilience: ResilienceReport | None = None
    #: Run-level counters gathered from the dispatcher
    #: (:meth:`~repro.dispatch.base.Dispatcher.run_telemetry` — e.g.
    #: warm-start frame counts) and the frame distance cache; merged
    #: into :meth:`perf_stats`.
    dispatch_telemetry: dict[str, float | int] = field(default_factory=dict)
    #: Sampled stability re-verification records; ``None`` unless the run
    #: had a :class:`~repro.resilience.auditor.StabilityAuditor` installed.
    stability_audit: StabilityAuditReport | None = None

    # -- request-side views ------------------------------------------------

    @property
    def served(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.served]

    @property
    def unserved(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if not o.served]

    @property
    def service_rate(self) -> float:
        return len(self.served) / len(self.outcomes) if self.outcomes else 0.0

    def dispatch_delays_min(self) -> list[float]:
        return [o.dispatch_delay_min for o in self.outcomes if o.dispatch_delay_min is not None]

    def passenger_dissatisfactions(self) -> list[float]:
        return [
            o.passenger_dissatisfaction
            for o in self.outcomes
            if o.passenger_dissatisfaction is not None
        ]

    # -- taxi-side views ---------------------------------------------------

    def taxi_dissatisfactions(self) -> list[float]:
        return [a.taxi_dissatisfaction for a in self.assignments]

    @property
    def shared_ride_fraction(self) -> float:
        if not self.assignments:
            return 0.0
        shared = sum(1 for a in self.assignments if a.group_size > 1)
        return shared / len(self.assignments)

    # -- performance views -------------------------------------------------

    def perf_stats(self) -> dict[str, float]:
        """Wall-clock dispatcher cost over the run, from the per-frame
        ``FrameStats.dispatch_ms`` series.

        ``active_frames`` counts frames where the dispatcher actually
        ran (idle taxis and queued requests both present); means and
        percentiles are reported over active frames, since a lightly
        loaded trace has many trivial frames that dilute them.

        ``frames_over_budget`` counts frames whose dispatch exceeded the
        frame length itself (``frame_length_s``, one minute by default):
        a dispatcher that blows this budget cannot keep up with real
        time, the paper's Fig. 8 criterion.
        """
        samples = [f.dispatch_ms for f in self.frame_stats]
        active = sorted(f.dispatch_ms for f in self.frame_stats if f.dispatch_ms > 0.0)
        total = sum(samples)
        budget_ms = self.frame_length_s * 1e3
        stats = {
            "frames": float(len(samples)),
            "active_frames": float(len(active)),
            "total_dispatch_ms": total,
            "mean_dispatch_ms": total / len(samples) if samples else 0.0,
            "mean_active_dispatch_ms": sum(active) / len(active) if active else 0.0,
            "p50_dispatch_ms": _percentile(active, 0.50),
            "p95_dispatch_ms": _percentile(active, 0.95),
            "max_dispatch_ms": max(samples, default=0.0),
            "frames_over_budget": float(sum(1 for ms in samples if ms > budget_ms)),
        }
        for key, value in self.dispatch_telemetry.items():
            stats[key] = float(value)
        warm = self.dispatch_telemetry.get("warm_frames", 0)
        cold = self.dispatch_telemetry.get("cold_frames", 0)
        if warm or cold:
            stats["warm_hit_rate"] = float(warm) / float(warm + cold)
        scored = self.dispatch_telemetry.get("pairs_scored_warm", 0)
        full = self.dispatch_telemetry.get("full_pairs_warm", 0)
        if full:
            stats["warm_rebuild_fraction"] = float(scored) / float(full)
        epochs = self.dispatch_telemetry.get("epochs_run", 0)
        if epochs:
            # Streaming runs: mean event-queue traffic per matching
            # epoch (arrivals + releases + the epoch event itself).
            stats["events_per_epoch"] = float(
                self.dispatch_telemetry.get("events_processed", 0)
            ) / float(epochs)
            groups = self.dispatch_telemetry.get("zone_groups", 0)
            decomposed = self.dispatch_telemetry.get("zone_decomposed_epochs", 0)
            if decomposed:
                stats["zone_groups_mean"] = float(groups) / float(decomposed)
        if self.stability_audit is not None:
            # frames_audited / audit_divergences / audit_healed / audit_ms;
            # divergences are expected to stay zero on every committed row.
            stats.update(self.stability_audit.summary())
            if total > 0.0:
                stats["audit_overhead_fraction"] = (
                    self.stability_audit.audit_ms / total
                )
        return stats

    def summary(self) -> dict[str, float]:
        """Headline averages, the quantities Figs. 6 and 7 plot."""
        delays = self.dispatch_delays_min()
        pd = self.passenger_dissatisfactions()
        td = self.taxi_dissatisfactions()
        return {
            "service_rate": self.service_rate,
            "mean_dispatch_delay_min": sum(delays) / len(delays) if delays else 0.0,
            "mean_passenger_dissatisfaction": sum(pd) / len(pd) if pd else 0.0,
            "mean_taxi_dissatisfaction": sum(td) / len(td) if td else 0.0,
            "shared_ride_fraction": self.shared_ride_fraction,
        }


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list (0.0 if empty)."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


class Simulator:
    """Run one dispatcher over one trace."""

    def __init__(
        self,
        dispatcher: Dispatcher,
        oracle: DistanceOracle,
        sim_config: SimulationConfig | None = None,
        *,
        overrun_s: float = 6.0 * 3600.0,
        repositioning: RepositioningPolicy | None = None,
        resilience: ResiliencePolicy | None = None,
        durability: DurabilityManager | None = None,
        auditor: StabilityAuditor | None = None,
    ):
        self.dispatcher = dispatcher
        self.oracle = oracle
        self.sim_config = sim_config if sim_config is not None else SimulationConfig()
        self.overrun_s = overrun_s
        self.repositioning = repositioning
        self.resilience = resilience
        self.durability = durability
        self.auditor = auditor

    def run(
        self,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        *,
        _resume: dict | None = None,
    ) -> SimulationResult:
        """Simulate until every request resolves or the horizon+overrun ends.

        ``_resume`` is the crash-recovery entry point (use
        :func:`~repro.resilience.checkpoint.resume_simulation`, not this
        parameter directly): the snapshot's state payload to restore
        before the frame loop starts.  Replayed frames are verified
        against the journal by the installed
        :class:`~repro.resilience.checkpoint.DurabilityManager`.
        """
        config = self.sim_config
        agents = {t.taxi_id: TaxiAgent.from_taxi(t) for t in taxis}
        if len(agents) != len(taxis):
            raise SimulationError("duplicate taxi ids in fleet")
        # The idle scan is the only per-frame pass over the whole fleet;
        # tracking availability in one float array (updated on assign)
        # turns it into a single vectorized comparison.
        agent_list = list(agents.values())
        agent_row = {agent.taxi_id: row for row, agent in enumerate(agent_list)}
        # Snapshots are memoized per agent on its location object; keeping
        # the current view in a row-indexed list turns the per-frame idle
        # gather into pure list indexing.  Entries refresh at the two
        # places an agent moves: assignment and repositioning.
        snapshots = [agent.snapshot() for agent in agent_list]
        available_at = np.fromiter(
            (agent.available_at_s for agent in agent_list),
            dtype=np.float64,
            count=len(agent_list),
        )

        ordered = sorted(requests, key=lambda r: (r.request_time_s, r.request_id))
        outcomes = [
            RequestOutcome(request_id=r.request_id, request_time_s=r.request_time_s)
            for r in ordered
        ]
        outcomes_by_id = {outcome.request_id: outcome for outcome in outcomes}
        if len(outcomes_by_id) != len(ordered):
            raise SimulationError("duplicate request ids in trace")

        arrival_cursor = 0
        # Insertion-ordered by admission; the per-frame dispatch batch is
        # one C-level ``list()`` call over its values.
        queue: dict[int, PassengerRequest] = {}
        assignments: list[AssignmentRecord] = []
        frame_stats: list[FrameStats] = []

        # One frame-scoped distance memo for the whole run; the engine
        # owns invalidation (begin_frame below), the dispatcher reads it.
        cache = FrameDistanceCache(self.oracle)
        self.dispatcher.frame_cache = cache
        # Warm solver state (if the dispatcher carries any) never outlives
        # a run: the first frame of every run is a cold frame.
        self.dispatcher.reset_warm_state(counters=True)

        # The degradation ladder (if any) is instantiated once per run;
        # every rung shares the frame cache and the run's oracle.
        policy = self.resilience
        rungs: list[tuple[Rung, Dispatcher]] | None = None
        report: ResilienceReport | None = None
        if policy is not None:
            rungs = policy.build_rungs(self.dispatcher, self.oracle)
            report = ResilienceReport()
            for _, rung_dispatcher in rungs:
                rung_dispatcher.frame_cache = cache
                rung_dispatcher.reset_warm_state(counters=True)
            if policy.fault_injector is not None:
                # Faults are confined to dispatch attempts: the ladder
                # arms the injector per attempt and the engine's own
                # accounting never runs with it armed.
                policy.fault_injector.disarm()

        frame = config.frame_length_s
        deadline = config.horizon_s + self.overrun_s
        time_s = frame
        frames_run = 0
        #: Running CRC chained over every frame's assignment pairs; the
        #: journal's cross-frame integrity digest.
        cum_crc = 0

        reposition_step_km = config.taxi_speed_kms * frame

        durability = self.durability
        auditor = self.auditor
        if auditor is not None:
            auditor.reset()
        if durability is not None:
            durability.begin_run(
                {
                    "dispatcher": self.dispatcher.name,
                    "n_taxis": len(taxis),
                    "n_requests": len(requests),
                    "frame_length_s": config.frame_length_s,
                    "horizon_s": config.horizon_s,
                    "warm_start": bool(getattr(self.dispatcher, "warm_start", False)),
                },
                resuming=durability.resuming,
            )
        elif _resume is not None:
            raise SimulationError("_resume state requires a DurabilityManager")

        if _resume is not None:
            # Crash recovery: adopt the snapshot's state wholesale.  All
            # floats crossed the snapshot as JSON (shortest-repr round
            # trip, exact), so the restored run is *bit*-identical to the
            # interrupted one, not approximately so.
            requests_by_id = {r.request_id: r for r in ordered}
            arrival_cursor = int(_resume["arrival_cursor"])
            for rid in _resume["queue"]:
                queue[rid] = requests_by_id[rid]
            for row in _resume["agents"]:
                taxi_id, x, y, avail, driven, trips, served = row
                agent = agents[taxi_id]
                agent.location = Point(x, y)
                agent.available_at_s = avail
                agent.total_driven_km = driven
                agent.completed_trips = trips
                agent.served_requests = served
            snapshots[:] = [agent.snapshot() for agent in agent_list]
            available_at[:] = [agent.available_at_s for agent in agent_list]
            for row in _resume["outcomes"]:
                outcome = outcomes_by_id[row[0]]
                outcome.dispatch_time_s = row[1]
                outcome.pickup_time_s = row[2]
                outcome.dropoff_time_s = row[3]
                outcome.passenger_dissatisfaction = row[4]
                outcome.group_size = row[5]
                outcome.taxi_id = row[6]
                outcome.abandoned = row[7]
            assignments.extend(
                AssignmentRecord(row[0], row[1], tuple(row[2]), row[3], row[4], row[5])
                for row in _resume["assignments"]
            )
            frame_stats.extend(FrameStats(*row) for row in _resume["frame_stats"])
            if report is not None:
                for row in _resume.get("resilience") or []:
                    report.record(FrameResilienceRecord(*row))
            if auditor is not None:
                for row in _resume.get("audit") or []:
                    auditor.report.record(StabilityAuditRecord(*row))
            self.dispatcher.restore_state(_resume.get("dispatch") or {})
            if policy is not None and policy.fault_injector is not None:
                injector_state = _resume.get("fault_injector")
                if injector_state is not None:
                    policy.fault_injector.restore_state(injector_state)
            if self.repositioning is not None:
                repositioning_state = _resume.get("repositioning")
                if repositioning_state is not None:
                    self.repositioning.restore_state(repositioning_state)
            cum_crc = int(_resume["cum_crc"])
            frames_run = int(_resume["frames_run"])
            time_s = float(_resume["time_s"]) + frame

        def _state_payload() -> dict:
            """Everything a resumed run needs, as pure JSON values.

            Warm solver state is deliberately absent: resume restarts
            that path cold, which is proven bit-identical (DESIGN.md
            §10) and keeps snapshots solver-agnostic.
            """
            payload: dict = {
                "time_s": time_s,
                "frames_run": frames_run,
                "arrival_cursor": arrival_cursor,
                "cum_crc": cum_crc,
                "queue": list(queue.keys()),
                "agents": [
                    [a.taxi_id, a.location.x, a.location.y, a.available_at_s,
                     a.total_driven_km, a.completed_trips, a.served_requests]
                    for a in agent_list
                ],
                # Only touched outcomes travel; the rest reconstruct from
                # the trace.
                "outcomes": [
                    [o.request_id, o.dispatch_time_s, o.pickup_time_s,
                     o.dropoff_time_s, o.passenger_dissatisfaction,
                     o.group_size, o.taxi_id, o.abandoned]
                    for o in outcomes
                    if o.dispatch_time_s is not None or o.abandoned
                ],
                "assignments": [
                    [r.frame_time_s, r.taxi_id, list(r.request_ids),
                     r.taxi_dissatisfaction, r.total_drive_km, r.revenue_km]
                    for r in assignments
                ],
                "frame_stats": [
                    [f.time_s, f.queue_length, f.idle_taxis,
                     f.dispatched_requests, f.dispatched_taxis, f.abandoned,
                     f.dispatch_ms]
                    for f in frame_stats
                ],
                "dispatch": self.dispatcher.state_payload(),
            }
            if report is not None:
                payload["resilience"] = [
                    [r.time_s, r.rung, r.rung_index, r.trigger, r.attempts,
                     r.faults, r.budget_s, r.elapsed_s]
                    for r in report.frames
                ]
            if auditor is not None:
                payload["audit"] = [
                    [r.time_s, r.frame, r.mode, r.requests, r.taxis,
                     r.blocking_pairs, r.diverged, r.healed, r.audit_ms]
                    for r in auditor.report.frames
                ]
            if policy is not None and policy.fault_injector is not None:
                payload["fault_injector"] = policy.fault_injector.state_payload()
            if self.repositioning is not None:
                payload["repositioning"] = self.repositioning.state_payload()
            return payload

        while time_s <= deadline:
            # Admit requests that arrived during the last frame.
            admitted: list[PassengerRequest] = []
            while (
                arrival_cursor < len(ordered)
                and ordered[arrival_cursor].request_time_s <= time_s
            ):
                incoming = ordered[arrival_cursor]
                queue[incoming.request_id] = incoming
                admitted.append(incoming)
                arrival_cursor += 1

            # Optional idle-taxi cruising (off in the paper's model).
            if self.repositioning is not None:
                self.repositioning.observe_requests(admitted)
                for agent in agents.values():
                    if not agent.is_idle_at(time_s):
                        continue
                    target = self.repositioning.target_for(agent.taxi_id, agent.location)
                    if target is None:
                        continue
                    moved = RepositioningPolicy.step_toward(
                        agent.location, target, reposition_step_km
                    )
                    agent.total_driven_km += agent.location.distance_to(moved)
                    agent.location = moved
                    snapshots[agent_row[agent.taxi_id]] = agent.snapshot()

            # Expire requests whose patience ran out.
            abandoned_now = 0
            if config.passenger_patience_s != float("inf"):
                # The queue is insertion-ordered by admission, and
                # admissions follow the trace's request-time order, so
                # request times are non-decreasing along the queue and
                # the expired entries form a prefix: stop at the first
                # survivor instead of scanning the whole queue.
                expired = []
                for rid, queued in queue.items():
                    if time_s - queued.request_time_s <= config.passenger_patience_s:
                        break
                    expired.append(rid)
                for rid in expired:
                    del queue[rid]
                    outcomes_by_id[rid].abandoned = True
                abandoned_now = len(expired)
                cache.retire_requests(expired)

            queue_length_before = len(queue)
            dispatched_now = 0
            assignments_before = len(assignments)
            idle_rows = np.flatnonzero(available_at <= time_s)
            idle = [snapshots[row] for row in idle_rows.tolist()]
            dispatch_ms = 0.0
            frame_record: FrameResilienceRecord | None = None
            audit_record: StabilityAuditRecord | None = None
            frame_mode: str | None = None
            cache.begin_frame()  # taxi positions changed: drop stale matrices
            if queue and idle:
                batch = list(queue.values())
                # repro-lint: disable=REP001 telemetry only: dispatch_ms never feeds a decision
                dispatch_start = time.perf_counter()
                if policy is None:
                    schedule = self.dispatcher.dispatch(idle, batch)
                else:
                    schedule, record = self._dispatch_resilient(
                        policy, rungs, idle, batch, time_s
                    )
                    report.record(record)
                    frame_record = record
                    # Warm state is only valid between consecutive frames
                    # solved by the same dispatcher.  Rungs that did not
                    # answer this frame (including a primary that failed
                    # mid-solve and may have half-updated its state) must
                    # restart cold next time they run.
                    for index, (_, rung_dispatcher) in enumerate(rungs):
                        if index != record.rung_index:
                            rung_dispatcher.reset_warm_state()
                # repro-lint: disable=REP001 telemetry only: dispatch_ms never feeds a decision
                dispatch_ms = (time.perf_counter() - dispatch_start) * 1e3
                if frame_record is None or frame_record.rung_index == 0:
                    frame_mode = self.dispatcher.last_frame_mode
                    if auditor is not None:
                        # Sampled stability re-verification of fast-path
                        # frames; on divergence the schedule coming back
                        # is a healed cold recomputation, and only the
                        # primary dispatcher's frames are eligible (a
                        # ladder fallback has no carried state to audit).
                        schedule, audit_record = auditor.audit_frame(
                            frame_index=frames_run,
                            time_s=time_s,
                            dispatcher=self.dispatcher,
                            taxis=idle,
                            requests=batch,
                            schedule=schedule,
                        )
                dcfg = self.dispatcher.config
                oracle = self.oracle
                if (
                    isinstance(schedule, PackedSingleSchedule)
                    and schedule.taxis is idle
                    and schedule.requests is batch
                ):
                    # Array-backed frame: the schedule's rows index this
                    # very frame's ``idle`` / ``batch`` (checked by
                    # identity above, so every row names a known
                    # entity), and the no-taxi-twice / no-request-twice
                    # validation the object path runs per id becomes two
                    # uniqueness checks on the row arrays.  The executed
                    # plans and every recorded number replicate the
                    # object path's fast branch bit for bit.
                    t_rows = schedule.taxi_rows
                    r_rows = schedule.request_rows
                    n_pairs = int(t_rows.size)
                    if n_pairs and (
                        np.unique(t_rows).size != n_pairs
                        or np.unique(r_rows).size != n_pairs
                        or int(t_rows.min()) < 0
                        or int(t_rows.max()) >= len(idle)
                        or int(r_rows.min()) < 0
                        or int(r_rows.max()) >= len(batch)
                    ):
                        raise ValueError(
                            "packed schedule has duplicate or out-of-range rows"
                        )
                    picks = schedule.pickup_km
                    trips = schedule.trip_km
                    pick_list = picks.tolist() if picks is not None else None
                    trip_list = trips.tolist() if trips is not None else None
                    retired: list[int] = []
                    for index, (t_row, r_row) in enumerate(
                        zip(t_rows.tolist(), r_rows.tolist())
                    ):
                        request = batch[r_row]
                        taxi_id = idle[t_row].taxi_id
                        agent = agents[taxi_id]
                        # Solver-supplied legs are bit-equal to the
                        # scalar oracle by the batch-exactness contract;
                        # without them the legs are derived exactly as
                        # the object path derives them.
                        d1 = (
                            pick_list[index]
                            if pick_list is not None
                            else oracle.distance(agent.location, request.pickup)
                        )
                        d2 = (
                            trip_list[index]
                            if trip_list is not None
                            else cache.trip_distance(request)
                        )
                        pickup_km = 0.0 + d1
                        total_drive = pickup_km + d2
                        detour = (total_drive - pickup_km) - d2
                        taxi_dis = total_drive - (dcfg.alpha + 1.0) * d2
                        pickup_s, dropoff_s = agent.assign_single(
                            request, time_s, d1, d2, config
                        )
                        rid = request.request_id
                        outcome = outcomes_by_id[rid]
                        outcome.pickup_time_s = pickup_s
                        outcome.dropoff_time_s = dropoff_s
                        outcome.dispatch_time_s = time_s
                        outcome.taxi_id = taxi_id
                        outcome.group_size = 1
                        outcome.passenger_dissatisfaction = (
                            pickup_km + dcfg.beta * detour
                        )
                        del queue[rid]
                        retired.append(rid)
                        row = agent_row[taxi_id]
                        available_at[row] = agent.available_at_s
                        snapshots[row] = agent.snapshot()
                        assignments.append(
                            AssignmentRecord(
                                frame_time_s=time_s,
                                taxi_id=taxi_id,
                                request_ids=(rid,),
                                taxi_dissatisfaction=taxi_dis,
                                total_drive_km=total_drive,
                                revenue_km=d2,
                            )
                        )
                    dispatched_now = n_pairs
                    cache.retire_requests(retired)
                else:
                    # The queue mapping doubles as the known-request-id
                    # view; only the handful of assigned requests need
                    # resolving, not the whole batch.
                    schedule.validate_ids({t.taxi_id for t in idle}, queue)
                    requests_by_id = {
                        rid: queue[rid]
                        for scheduled in schedule.assignments
                        for rid in scheduled.request_ids
                    }
                    for assignment in schedule.assignments:
                        taxi_id = assignment.taxi_id
                        agent = agents[taxi_id]
                        rids = assignment.request_ids
                        stops = assignment.stops
                        request = requests_by_id[rids[0]] if len(rids) == 1 else None
                        if (
                            request is not None
                            and len(stops) == 2
                            and stops[0].point is request.pickup
                            and stops[1].point is request.dropoff
                        ):
                            # The canonical non-sharing plan (drive to the
                            # pickup, then the dropoff): inline the
                            # assignment_metrics formulas in their exact
                            # operation order — the ``0.0 +`` seed, the
                            # cumulative subtraction, and all — so every
                            # number is bit-identical while skipping the
                            # per-assignment dict/dataclass machinery.  The
                            # trip leg comes from the frame cache (exact by
                            # contract) and both legs feed assign_single, so
                            # the oracle runs once per leg for the frame.
                            d1 = oracle.distance(agent.location, request.pickup)
                            d2 = cache.trip_distance(request)
                            pickup_km = 0.0 + d1
                            total_drive = pickup_km + d2
                            detour = (total_drive - pickup_km) - d2
                            taxi_dis = total_drive - (dcfg.alpha + 1.0) * d2
                            revenue = d2
                            pickup_s, dropoff_s = agent.assign_single(
                                request, time_s, d1, d2, config
                            )
                            rid = rids[0]
                            outcome = outcomes_by_id[rid]
                            outcome.pickup_time_s = pickup_s
                            outcome.dropoff_time_s = dropoff_s
                            outcome.dispatch_time_s = time_s
                            outcome.taxi_id = taxi_id
                            outcome.group_size = 1
                            outcome.passenger_dissatisfaction = (
                                pickup_km + dcfg.beta * detour
                            )
                            del queue[rid]
                            dispatched_now += 1
                        else:
                            metrics = assignment_metrics(
                                agent.snapshot(), assignment, requests_by_id, oracle, dcfg
                            )
                            taxi_dis = metrics.taxi_dissatisfaction
                            total_drive = metrics.total_drive_km
                            revenue = sum(
                                cache.trip_distance(requests_by_id[rid]) for rid in rids
                            )
                            arrivals = agent.assign(assignment, time_s, oracle, config)
                            for arrival in arrivals:
                                outcome = outcomes_by_id[arrival.request_id]
                                if arrival.is_pickup:
                                    outcome.pickup_time_s = arrival.time_s
                                else:
                                    outcome.dropoff_time_s = arrival.time_s
                            for rid in rids:
                                outcome = outcomes_by_id[rid]
                                outcome.dispatch_time_s = time_s
                                outcome.taxi_id = taxi_id
                                outcome.group_size = len(rids)
                                outcome.passenger_dissatisfaction = (
                                    metrics.passenger_dissatisfaction[rid]
                                )
                                del queue[rid]
                                dispatched_now += 1
                        row = agent_row[taxi_id]
                        available_at[row] = agent.available_at_s
                        snapshots[row] = agent.snapshot()
                        assignments.append(
                            AssignmentRecord(
                                frame_time_s=time_s,
                                taxi_id=taxi_id,
                                request_ids=rids,
                                taxi_dissatisfaction=taxi_dis,
                                total_drive_km=total_drive,
                                revenue_km=revenue,
                            )
                        )
                    # Dispatched requests never return to a frame; their
                    # request-keyed memos are dead (revenue above was their
                    # last read).
                    cache.retire_requests(
                        rid
                        for assignment in schedule.assignments
                        for rid in assignment.request_ids
                    )

            frame_stats.append(
                FrameStats(
                    time_s=time_s,
                    queue_length=queue_length_before,
                    idle_taxis=len(idle),
                    dispatched_requests=dispatched_now,
                    dispatched_taxis=len(assignments) - assignments_before,
                    abandoned=abandoned_now,
                    dispatch_ms=dispatch_ms,
                )
            )
            frame_index = frames_run
            frames_run += 1
            if durability is not None:
                frame_pairs = [
                    (rid, assigned.taxi_id)
                    for assigned in assignments[assignments_before:]
                    for rid in assigned.request_ids
                ]
                cum_crc = frame_pairs_crc(frame_pairs, seed=cum_crc)
                injector = policy.fault_injector if policy is not None else None
                digest = FrameDigest(
                    frame=frame_index,
                    time_s=time_s,
                    queue=queue_length_before,
                    idle=len(idle),
                    dispatched=dispatched_now,
                    abandoned=abandoned_now,
                    pairs_crc=frame_pairs_crc(frame_pairs),
                    cum_crc=cum_crc,
                    rng=injector.state_fingerprint() if injector is not None else None,
                    rung=frame_record.rung if frame_record is not None else None,
                    mode=frame_mode,
                    audited=audit_record is not None,
                    divergence=audit_record.diverged if audit_record is not None else False,
                )
                # A mid-frame crash loses this frame's journal record:
                # resume replays it from the previous checkpoint.  The
                # boundary crash point (after append + checkpoint) lives
                # inside commit_frame.
                durability.crash_point(frame_index, "mid-frame")
                durability.commit_frame(digest, _state_payload)
            # Past the horizon no new requests arrive; stop as soon as the
            # queue drains (or patience will clear it).
            if time_s >= config.horizon_s and not queue and arrival_cursor >= len(ordered):
                break
            time_s += frame

        revenue_by_taxi: dict[int, float] = {t: 0.0 for t in agents}
        for record in assignments:
            revenue_by_taxi[record.taxi_id] += record.revenue_km
        taxi_stats = {
            taxi_id: TaxiStats(
                taxi_id=taxi_id,
                driven_km=agent.total_driven_km,
                rides=agent.completed_trips,
                requests_served=agent.served_requests,
                revenue_km=revenue_by_taxi[taxi_id],
            )
            for taxi_id, agent in agents.items()
        }

        # Seal the durability artifacts: the journal's end record and a
        # final ``finished`` snapshot, so a later resume attempt can tell
        # a completed run from an interrupted one.
        if durability is not None:
            durability.finish_run(
                max(frames_run - 1, 0),
                {
                    "frames": frames_run,
                    "assignments": len(assignments),
                    "cum_crc": cum_crc,
                },
                _state_payload,
            )

        # Detach the run-scoped cache: a dispatcher used outside this
        # engine afterwards must not read matrices from the last frame.
        # Run telemetry is harvested first, then warm state dropped for
        # the same reason — it describes this run's final frame only.
        telemetry: dict[str, float | int] = dict(self.dispatcher.run_telemetry())
        telemetry.update(cache.stats())
        if durability is not None:
            telemetry["replay_frames_verified"] = durability.frames_verified
        self.dispatcher.frame_cache = None
        self.dispatcher.reset_warm_state()
        if rungs is not None:
            for _, rung_dispatcher in rungs:
                rung_dispatcher.frame_cache = None
                rung_dispatcher.frame_budget = None
                rung_dispatcher.reset_warm_state()

        # Anything still queued at the deadline is unserved.
        return SimulationResult(
            dispatcher_name=self.dispatcher.name,
            outcomes=outcomes,
            assignments=assignments,
            frames_run=frames_run,
            final_time_s=min(time_s, deadline),
            taxi_stats=taxi_stats,
            frame_stats=frame_stats,
            frame_length_s=config.frame_length_s,
            resilience=report,
            dispatch_telemetry=telemetry,
            stability_audit=auditor.report if auditor is not None else None,
        )

    def _dispatch_resilient(
        self,
        policy: ResiliencePolicy,
        rungs: list[tuple[Rung, Dispatcher]],
        idle: list[Taxi],
        batch: list[PassengerRequest],
        time_s: float,
    ) -> tuple[DispatchSchedule, FrameResilienceRecord]:
        """Walk the degradation ladder until some rung answers the frame.

        Budgeted rungs share one :class:`FrameBudget` anchored at the
        frame's start, each extended to its own (later) deadline slice;
        transient faults retry the same rung up to
        ``policy.transient_retries`` times; any other dispatcher error
        falls to the next rung.  If even the terminal rung fails, the
        frame is answered with an empty schedule and recorded as
        dropped — the condition chaos runs assert never happens.
        """
        frame = self.sim_config.frame_length_s
        budget = policy.make_budget(frame)
        injector = policy.fault_injector
        budgeted_count = sum(1 for rung, _ in rungs if rung.budgeted)
        budgeted_seen = 0
        attempts = 0
        faults = 0
        trigger: str | None = None
        for index, (rung, dispatcher) in enumerate(rungs):
            if rung.budgeted:
                budget.extend_to(
                    policy.rung_deadline_s(budgeted_seen, budgeted_count, frame)
                )
                budgeted_seen += 1
            for _ in range(policy.transient_retries + 1):
                attempts += 1
                dispatcher.frame_budget = budget if rung.budgeted else None
                if injector is not None:
                    injector.arm()
                try:
                    schedule = dispatcher.dispatch(idle, batch)
                except FrameBudgetExceededError:
                    trigger = trigger or "deadline"
                    break  # this rung is out of time: next rung
                except EnumerationBudgetError:
                    # A work budget the rung should have consumed escaped
                    # it; named before ReproError so it is never swallowed
                    # as a generic error (REP004) and gets its own trigger.
                    trigger = trigger or "enum-budget"
                    break  # the rung could not finish its enumeration
                except TransientFaultError:
                    faults += 1
                    trigger = trigger or "fault"
                    continue  # transient: retry the same rung
                except ReproError:
                    trigger = trigger or "error"
                    break  # broken decision: next rung
                finally:
                    if injector is not None:
                        injector.disarm()
                    dispatcher.frame_budget = None
                return schedule, FrameResilienceRecord(
                    time_s=time_s,
                    rung=rung.name,
                    rung_index=index,
                    trigger=trigger,
                    attempts=attempts,
                    faults=faults,
                    budget_s=budget.duration_s,
                    elapsed_s=budget.elapsed(),
                )
        return DispatchSchedule(), FrameResilienceRecord(
            time_s=time_s,
            rung=DROPPED_RUNG,
            rung_index=len(rungs),
            trigger=trigger,
            attempts=attempts,
            faults=faults,
            budget_s=budget.duration_s,
            elapsed_s=budget.elapsed(),
        )
