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

from collections.abc import Sequence
from dataclasses import fields
from functools import partial
from typing import Any

from repro.core.clock import telemetry_clock
from repro.core.config import SimulationConfig
from repro.core.errors import (
    EnumerationBudgetError,
    FrameBudgetExceededError,
    ReproError,
    SimulationError,
    TransientFaultError,
)
from repro.core.types import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher
from repro.geometry.distance import DistanceOracle
from repro.resilience.auditor import StabilityAuditor
from repro.resilience.checkpoint import DurabilityManager, ResumePoint
from repro.resilience.journal import FrameDigest
from repro.resilience.ladder import ResiliencePolicy, Rung
from repro.resilience.report import (
    DROPPED_RUNG,
    FrameResilienceRecord,
    ResilienceReport,
    StabilityAuditRecord,
)
from repro.simulation.core import RunCore, SimulationResult
from repro.simulation.repositioning import RepositioningPolicy

__all__ = ["Simulator", "SimulationResult"]


#: Record fields equal to a field of their frame's journal digest (its
#: ``time_s``, ``frame``, ``queue`` and ``idle``): journal rows leave them out.
_DIGEST_FIELDS = frozenset({"time_s", "frame", "requests", "taxis"})


def _row(record: FrameResilienceRecord | StabilityAuditRecord) -> list[Any]:
    """A flat record as a journal row: its fields in constructor order,
    less those its frame's digest carries."""
    return [getattr(record, f.name) for f in fields(record) if f.name not in _DIGEST_FIELDS]


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
        _resume: ResumePoint | None = None,
    ) -> SimulationResult:
        """Simulate until every request resolves or the horizon+overrun ends.

        ``_resume`` is the crash-recovery entry point (use
        :func:`~repro.resilience.checkpoint.resume_simulation`, not this
        parameter directly): the snapshot's state payload and the
        journaled history it presumes, restored before the frame loop
        starts.  Replayed frames are verified against the journal by the
        installed :class:`~repro.resilience.checkpoint.DurabilityManager`.
        """
        config = self.sim_config
        policy = self.resilience
        if policy is not None and policy.fault_injector is not None:
            # Faults are confined to dispatch attempts: the ladder arms
            # the injector per attempt and the engine's own work (the
            # run-start trip measurement, the accounting) never runs
            # with it armed.
            policy.fault_injector.disarm()
        core = RunCore(taxis, requests, self.oracle, config, self.dispatcher.config)
        self.dispatcher.frame_cache = core.cache
        # Warm solver state (if the dispatcher carries any) never outlives
        # a run: the first frame of every run is a cold frame.
        self.dispatcher.reset_warm_state(counters=True)

        # The degradation ladder (if any) is instantiated once per run;
        # every rung shares the frame cache and the run's oracle.
        rungs: list[tuple[Rung, Dispatcher]] | None = None
        report: ResilienceReport | None = None
        if policy is not None:
            rungs = policy.build_rungs(self.dispatcher, self.oracle)
            report = ResilienceReport()
            for _, rung_dispatcher in rungs:
                rung_dispatcher.frame_cache = core.cache
                rung_dispatcher.reset_warm_state(counters=True)

        frame = config.frame_length_s
        deadline = config.horizon_s + self.overrun_s
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
            self._restore_state(core, report, _resume)
        state_payload = partial(self._state_payload, core)

        core.advance(frame)
        while core.time_s <= deadline:
            time_s = core.time_s
            frame_index = core.frames_run
            admitted = core.admit()

            # Optional idle-taxi cruising (off in the paper's model).
            if self.repositioning is not None:
                self.repositioning.observe_requests(admitted)
                for row, agent in enumerate(core.agent_list):
                    if not agent.is_idle_at(time_s):
                        continue
                    target = self.repositioning.target_for(agent.taxi_id, agent.location)
                    if target is None:
                        continue
                    core.relocate(row, target, reposition_step_km)

            abandoned = core.expire()
            queue_rows = core.queue_rows()
            queue_length = len(queue_rows)
            # A frame with nothing queued dispatches nothing: it needs
            # only the idle count, not the idle snapshots.
            if queue_length:
                idle = core.idle()
                idle_taxis = len(idle)
            else:
                idle, idle_taxis = [], core.idle_count()
            dispatched = (0, 0)
            dispatch_ms = 0.0
            frame_record: FrameResilienceRecord | None = None
            audit_record: StabilityAuditRecord | None = None
            if idle:
                batch = core.batch(queue_rows)
                dispatch_start = telemetry_clock()
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
                dispatch_ms = (telemetry_clock() - dispatch_start) * 1e3
                if auditor is not None and (
                    frame_record is None or frame_record.rung_index == 0
                ):
                    # Sampled stability re-verification of fast-path
                    # frames; on divergence the schedule coming back is
                    # a healed cold recomputation, and only the primary
                    # dispatcher's frames are eligible (a ladder
                    # fallback has no carried state to audit).
                    schedule, audit_record = auditor.audit_frame(
                        frame_index=frame_index,
                        time_s=time_s,
                        dispatcher=self.dispatcher,
                        taxis=idle,
                        requests=batch,
                        schedule=schedule,
                    )
                dispatched = core.execute(schedule, idle, batch)

            stats = core.record_frame(queue_length, idle_taxis, dispatched, abandoned, dispatch_ms)
            if durability is not None:
                pairs_crc = core.chain_crc(stats)
                injector = policy.fault_injector if policy is not None else None
                digest = FrameDigest(
                    frame=frame_index,
                    time_s=time_s,
                    queue=queue_length,
                    idle=idle_taxis,
                    dispatched=stats.dispatched_requests,
                    abandoned=abandoned,
                    pairs_crc=pairs_crc,
                    cum_crc=core.cum_crc,
                    rng=injector.state_fingerprint() if injector is not None else None,
                )
                rows = core.frame_rows(stats)
                if frame_record is not None:
                    rows["resilience"] = _row(frame_record)
                if audit_record is not None:
                    rows["audit"] = _row(audit_record)
                # A mid-frame crash loses this frame's journal record:
                # resume replays it from the previous checkpoint.  The
                # boundary crash point (after append + checkpoint) lives
                # inside commit_frame.
                durability.crash_point(frame_index, "mid-frame")
                durability.commit_frame(digest, rows, state_payload)
            # Past the horizon no new requests arrive; stop as soon as the
            # queue drains (or patience will clear it).
            if time_s >= config.horizon_s and core.drained:
                break
            core.advance(frame)

        # Seal the durability artifacts: the journal's end record and a
        # final ``finished`` snapshot, so a later resume attempt can tell
        # a completed run from an interrupted one.
        if durability is not None:
            durability.finish_run(
                max(core.frames_run - 1, 0),
                {
                    "frames": core.frames_run,
                    "assignments": len(core.assignments),
                    "cum_crc": core.cum_crc,
                },
                state_payload,
            )

        # Detach the run-scoped cache: a dispatcher used outside this
        # engine afterwards must not read matrices from the last frame.
        # Run telemetry is harvested first, then warm state dropped for
        # the same reason — it describes this run's final frame only.
        telemetry: dict[str, float | int] = dict(self.dispatcher.run_telemetry())
        telemetry.update(core.cache.stats())
        if durability is not None:
            telemetry["replay_frames_verified"] = durability.frames_verified
        self.dispatcher.frame_cache = None
        self.dispatcher.reset_warm_state()
        if rungs is not None:
            for _, rung_dispatcher in rungs:
                rung_dispatcher.frame_cache = None
                rung_dispatcher.frame_budget = None
                rung_dispatcher.reset_warm_state()

        return core.result(
            self.dispatcher.name,
            config.frame_length_s,
            deadline,
            telemetry,
            resilience=report,
            stability_audit=auditor.report if auditor is not None else None,
        )

    def _state_payload(self, core: RunCore) -> dict[str, Any]:
        """The mutable state a resumed run needs, as pure JSON values.

        History — the resilience and audit records included — is the
        journal's (:meth:`run` hands each frame's rows to
        ``commit_frame``).  Warm solver state is deliberately absent:
        resume restarts that path cold, which is proven bit-identical
        (DESIGN.md §10) and keeps snapshots solver-agnostic.
        """
        payload = core.state_payload()
        payload["dispatch"] = self.dispatcher.state_payload()
        policy = self.resilience
        if policy is not None and policy.fault_injector is not None:
            payload["fault_injector"] = policy.fault_injector.state_payload()
        if self.repositioning is not None:
            payload["repositioning"] = self.repositioning.state_payload()
        return payload

    def _restore_state(
        self, core: RunCore, report: ResilienceReport | None, point: ResumePoint
    ) -> None:
        """Adopt a :meth:`_state_payload` snapshot and rebuild the history
        from its journal prefix (crash recovery)."""
        payload = point.state
        core.restore_state(payload, point.digests, point.history)
        for digest, rows in zip(point.digests, point.history):
            # Each record's leading fields come back from the digest.
            if report is not None and "resilience" in rows:
                report.record(FrameResilienceRecord(digest.time_s, *rows["resilience"]))
            if self.auditor is not None and "audit" in rows:
                mode, *verdict = rows["audit"]
                self.auditor.report.record(StabilityAuditRecord(
                    digest.time_s, digest.frame, mode, digest.queue, digest.idle, *verdict
                ))
        self.dispatcher.restore_state(payload.get("dispatch") or {})
        policy = self.resilience
        if policy is not None and policy.fault_injector is not None:
            injector_state = payload.get("fault_injector")
            if injector_state is not None:
                policy.fault_injector.restore_state(injector_state)
        if self.repositioning is not None:
            repositioning_state = payload.get("repositioning")
            if repositioning_state is not None:
                self.repositioning.restore_state(repositioning_state)

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
