"""The run core both engines share: per-run state and the frame steps.

The paper's model (Section III-A / VI-A) is one loop: at each frame
boundary, match the idle taxis to the pending requests, execute the
matches, repeat.  :class:`RunCore` owns everything that loop carries
between frames — agents and their idle view, the admission-ordered
queue, outcomes, assignments, per-frame statistics and the run's
:class:`~repro.simulation.frame_cache.FrameDistanceCache` — and the
steps over it: admit, expire, idle, execute, record, snapshot/restore
and result assembly.

The engines differ only in the clock that drives those steps: the batch
:class:`~repro.simulation.engine.Simulator` walks fixed frames, the
:class:`~repro.streaming.engine.StreamingEngine` pops arrivals and
epochs off an event queue.  Because both execute through this core, a
streaming run at epoch length ``e`` is bit-identical to a cold batch
run at frame length ``e``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.core.config import DispatchConfig, SimulationConfig
from repro.core.errors import SimulationError
from repro.core.types import Assignment, DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import PackedSingleSchedule
from repro.dispatch.scoring import assignment_metrics
from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point
from repro.resilience.journal import frame_pairs_crc
from repro.resilience.report import ResilienceReport, StabilityAuditReport
from repro.simulation.events import AssignmentRecord, FrameStats, RequestOutcome, TaxiStats
from repro.simulation.frame_cache import FrameDistanceCache
from repro.simulation.repositioning import RepositioningPolicy
from repro.simulation.taxi_state import TaxiAgent

__all__ = ["RunCore", "SimulationResult", "telemetry_clock"]

#: The one wall-clock read of the frame loop, in seconds.  Both engines
#: time their ``dispatch_ms`` window with it, and the value only ever
#: lands in telemetry, never in a decision.
telemetry_clock = time.perf_counter  # repro-lint: disable=REP001 telemetry only: dispatch_ms never feeds a decision


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
            # epoch (arrivals + the epoch event itself).
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


class RunCore:
    """One run's state and the frame steps both engines call.

    The engine owns the clock: it calls :meth:`advance` to move
    :attr:`time_s` to the next frame (or epoch), then runs the steps at
    that time.  ``dispatch_config`` supplies the α/β of the executed
    metrics.
    """

    #: Attributes the snapshot leaves out, each rebuilt from state it does carry.
    DURABILITY_EXCLUSIONS: ClassVar[dict[str, str]] = {
        "snapshots": "per-row view of the agents' positions; restore_state rebuilds it from them",
        "available_at": "per-row view of the agents' available_at_s; restore_state rebuilds it",
    }

    def __init__(
        self,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        oracle: DistanceOracle,
        sim_config: SimulationConfig,
        dispatch_config: DispatchConfig,
    ):
        self.oracle = oracle
        self.sim_config = sim_config
        self.dispatch_config = dispatch_config
        self.agents = {t.taxi_id: TaxiAgent.from_taxi(t) for t in taxis}
        if len(self.agents) != len(taxis):
            raise SimulationError("duplicate taxi ids in fleet")
        self.agent_list = list(self.agents.values())
        self.agent_row = {agent.taxi_id: row for row, agent in enumerate(self.agent_list)}
        # Row-indexed idle view: the per-frame idle gather is one
        # vectorized comparison plus list indexing.  Rows refresh wherever
        # an agent moves (assignment, relocation).
        self.snapshots = [agent.snapshot() for agent in self.agent_list]
        self.available_at = np.fromiter(
            (agent.available_at_s for agent in self.agent_list),
            dtype=np.float64,
            count=len(self.agent_list),
        )

        self.ordered = sorted(requests, key=lambda r: (r.request_time_s, r.request_id))
        self.outcomes = [
            RequestOutcome(request_id=r.request_id, request_time_s=r.request_time_s)
            for r in self.ordered
        ]
        self.outcomes_by_id = {outcome.request_id: outcome for outcome in self.outcomes}
        if len(self.outcomes_by_id) != len(self.ordered):
            raise SimulationError("duplicate request ids in trace")

        self.arrival_cursor = 0
        # Insertion-ordered by admission, which follows trace order, so
        # request times are non-decreasing along the queue.
        self.queue: dict[int, PassengerRequest] = {}
        self.assignments: list[AssignmentRecord] = []
        self.frame_stats: list[FrameStats] = []
        # The run's distance memo: idle() opens each frame, solvers read it.
        self.cache = FrameDistanceCache(oracle)
        self.time_s = 0.0
        self.frames_run = 0
        #: Running CRC chained over every frame's assignment pairs; the
        #: journal's cross-frame integrity digest.
        self.cum_crc = 0

    def advance(self, step_s: float) -> None:
        """Move the run clock forward by one frame (or epoch) length."""
        self.time_s += step_s

    @property
    def drained(self) -> bool:
        """Every request has arrived and none is still queued."""
        return not self.queue and self.arrival_cursor >= len(self.ordered)

    @property
    def next_arrival(self) -> PassengerRequest | None:
        """The next request in trace order not yet admitted, if any."""
        if self.arrival_cursor < len(self.ordered):
            return self.ordered[self.arrival_cursor]
        return None

    def admit_next(self) -> PassengerRequest:
        """Queue :attr:`next_arrival` and return it."""
        request = self.ordered[self.arrival_cursor]
        self.queue[request.request_id] = request
        self.arrival_cursor += 1
        return request

    def admit(self) -> list[PassengerRequest]:
        """Queue every request that arrived by :attr:`time_s` (inclusive)."""
        admitted: list[PassengerRequest] = []
        incoming = self.next_arrival
        while incoming is not None and incoming.request_time_s <= self.time_s:
            admitted.append(self.admit_next())
            incoming = self.next_arrival
        return admitted

    def expire(self) -> int:
        """Drop queued requests whose patience ran out; returns how many."""
        patience_s = self.sim_config.passenger_patience_s
        if patience_s == float("inf"):
            return 0
        # Request times are non-decreasing along the queue, so the
        # expired entries form a prefix: stop at the first survivor
        # instead of scanning the whole queue.
        expired = []
        for rid, queued in self.queue.items():
            if self.time_s - queued.request_time_s <= patience_s:
                break
            expired.append(rid)
        for rid in expired:
            del self.queue[rid]
            self.outcomes_by_id[rid].abandoned = True
        self.cache.retire_requests(expired)
        return len(expired)

    def idle(self) -> list[Taxi]:
        """The taxis idle at :attr:`time_s`, in fleet-row order.

        Also opens the frame's distance cache: taxi positions changed
        since the last frame, so its position-keyed matrices are stale.
        """
        rows = np.flatnonzero(self.available_at <= self.time_s).tolist()
        idle = [self.snapshots[row] for row in rows]
        self.cache.begin_frame()
        return idle

    def relocate(self, row: int, target: Point, max_km: float) -> None:
        """Drive the idle taxi at fleet ``row`` up to ``max_km`` toward ``target``."""
        agent = self.agent_list[row]
        moved = RepositioningPolicy.step_toward(agent.location, target, max_km)
        agent.total_driven_km += agent.location.distance_to(moved)
        agent.location = moved
        self.snapshots[row] = agent.snapshot()

    def execute(
        self,
        schedule: DispatchSchedule,
        idle: list[Taxi],
        batch: list[PassengerRequest],
    ) -> tuple[int, int]:
        """Commit a frame's schedule; returns ``(requests, taxis)`` dispatched.

        ``idle`` and ``batch`` are the frame's inputs the schedule was
        computed from.  A :class:`~repro.dispatch.base.PackedSingleSchedule`
        over exactly those lists executes row by row; any other schedule
        is validated against the idle fleet and the live queue first.
        """
        if (
            isinstance(schedule, PackedSingleSchedule)
            and schedule.taxis is idle
            and schedule.requests is batch
        ):
            return self._execute_packed(schedule, idle, batch)
        # The queue mapping doubles as the known-request-id view; only the
        # handful of assigned requests need resolving, not the whole batch.
        schedule.validate_ids({t.taxi_id for t in idle}, self.queue)
        requests_by_id = {
            rid: self.queue[rid]
            for scheduled in schedule.assignments
            for rid in scheduled.request_ids
        }
        for assignment in schedule.assignments:
            agent = self.agents[assignment.taxi_id]
            rids = assignment.request_ids
            stops = assignment.stops
            request = requests_by_id[rids[0]] if len(rids) == 1 else None
            if (
                request is not None
                and len(stops) == 2
                and stops[0].point is request.pickup
                and stops[1].point is request.dropoff
            ):
                # The canonical non-sharing plan: pickup, then dropoff.
                self._assign_single(request, agent)
            else:
                self._assign_group(assignment, agent, requests_by_id)
        # Dispatched requests never return to a frame; their request-keyed
        # memos are dead (the revenue above was their last read).
        self.cache.retire_requests(requests_by_id)
        return len(requests_by_id), len(schedule.assignments)

    def execute_pairs(self, pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
        """Commit single-rider ``(request id, taxi id)`` pairs in the given
        order, each on the canonical plan; returns ``(requests, taxis)``."""
        retired: list[int] = []
        for rid, taxi_id in pairs:
            self._assign_single(self.queue[rid], self.agents[taxi_id])
            retired.append(rid)
        self.cache.retire_requests(retired)
        return len(retired), len(retired)

    def _execute_packed(
        self,
        schedule: PackedSingleSchedule,
        idle: list[Taxi],
        batch: list[PassengerRequest],
    ) -> tuple[int, int]:
        """Execute an array-backed frame whose rows index ``idle``/``batch``.

        The identity check in :meth:`execute` means every row names a
        known entity, so the no-taxi-twice / no-request-twice validation
        the object path runs per id becomes two uniqueness checks on the
        row arrays.
        """
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
            raise ValueError("packed schedule has duplicate or out-of-range rows")
        # Solver-supplied legs are bit-equal to the scalar oracle by the
        # batch-exactness contract; without them _assign_single derives
        # the legs exactly as the object path does.
        none = [None] * n_pairs
        picks = schedule.pickup_km.tolist() if schedule.pickup_km is not None else none
        trips = schedule.trip_km.tolist() if schedule.trip_km is not None else none
        retired: list[int] = []
        for t_row, r_row, d1, d2 in zip(t_rows.tolist(), r_rows.tolist(), picks, trips):
            request = batch[r_row]
            self._assign_single(request, self.agents[idle[t_row].taxi_id], d1, d2)
            retired.append(request.request_id)
        self.cache.retire_requests(retired)
        return n_pairs, n_pairs

    def _assign_single(
        self,
        request: PassengerRequest,
        agent: TaxiAgent,
        d1: float | None = None,
        d2: float | None = None,
    ) -> None:
        """Commit ``agent`` to the canonical pickup→dropoff plan of ``request``.

        ``d1``/``d2`` are the pickup and trip legs when the solver
        already has them (exact by contract); otherwise they come from
        the oracle and the frame memo.  The
        :func:`~repro.dispatch.scoring.assignment_metrics` formulas are
        inlined in their exact operation order — the ``0.0 +`` seed, the
        cumulative subtraction, and all — so every number is
        bit-identical to the general path while skipping its per-
        assignment dict/dataclass machinery.
        """
        if d1 is None:
            d1 = self.oracle.distance(agent.location, request.pickup)
        if d2 is None:
            d2 = self.cache.trip_distance(request)
        dcfg = self.dispatch_config
        time_s = self.time_s
        pickup_km = 0.0 + d1
        total_drive = pickup_km + d2
        detour = (total_drive - pickup_km) - d2
        pickup_s, dropoff_s = agent.assign_single(request, time_s, d1, d2, self.sim_config)
        rid = request.request_id
        outcome = self.outcomes_by_id[rid]
        outcome.pickup_time_s = pickup_s
        outcome.dropoff_time_s = dropoff_s
        outcome.dispatch_time_s = time_s
        outcome.taxi_id = agent.taxi_id
        outcome.group_size = 1
        outcome.passenger_dissatisfaction = pickup_km + dcfg.beta * detour
        del self.queue[rid]
        self._commit(
            agent,
            AssignmentRecord(
                frame_time_s=time_s,
                taxi_id=agent.taxi_id,
                request_ids=(rid,),
                taxi_dissatisfaction=total_drive - (dcfg.alpha + 1.0) * d2,
                total_drive_km=total_drive,
                revenue_km=d2,
            ),
        )

    def _assign_group(
        self,
        assignment: Assignment,
        agent: TaxiAgent,
        requests_by_id: Mapping[int, PassengerRequest],
    ) -> None:
        """Commit ``agent`` to a general (shared or reordered) plan."""
        time_s = self.time_s
        rids = assignment.request_ids
        metrics = assignment_metrics(
            agent.snapshot(), assignment, requests_by_id, self.oracle, self.dispatch_config
        )
        revenue = sum(self.cache.trip_distance(requests_by_id[rid]) for rid in rids)
        for arrival in agent.assign(assignment, time_s, self.oracle, self.sim_config):
            outcome = self.outcomes_by_id[arrival.request_id]
            if arrival.is_pickup:
                outcome.pickup_time_s = arrival.time_s
            else:
                outcome.dropoff_time_s = arrival.time_s
        for rid in rids:
            outcome = self.outcomes_by_id[rid]
            outcome.dispatch_time_s = time_s
            outcome.taxi_id = agent.taxi_id
            outcome.group_size = len(rids)
            outcome.passenger_dissatisfaction = metrics.passenger_dissatisfaction[rid]
            del self.queue[rid]
        self._commit(
            agent,
            AssignmentRecord(
                frame_time_s=time_s,
                taxi_id=agent.taxi_id,
                request_ids=rids,
                taxi_dissatisfaction=metrics.taxi_dissatisfaction,
                total_drive_km=metrics.total_drive_km,
                revenue_km=revenue,
            ),
        )

    def _commit(self, agent: TaxiAgent, record: AssignmentRecord) -> None:
        """Refresh the dispatched taxi's idle view and log its assignment."""
        row = self.agent_row[agent.taxi_id]
        self.available_at[row] = agent.available_at_s
        self.snapshots[row] = agent.snapshot()
        self.assignments.append(record)

    def record_frame(
        self,
        queue_length: int,
        idle_taxis: int,
        dispatched: tuple[int, int],
        abandoned: int,
        dispatch_ms: float,
    ) -> FrameStats:
        """Append and return the :class:`FrameStats` of the frame at :attr:`time_s`.

        ``queue_length`` is the queue after expiry and before dispatch;
        ``dispatched`` is what :meth:`execute` returned (``(0, 0)`` when
        the frame had nothing to dispatch).
        """
        stats = FrameStats(
            time_s=self.time_s,
            queue_length=queue_length,
            idle_taxis=idle_taxis,
            dispatched_requests=dispatched[0],
            dispatched_taxis=dispatched[1],
            abandoned=abandoned,
            dispatch_ms=dispatch_ms,
        )
        self.frame_stats.append(stats)
        self.frames_run += 1
        return stats

    def chain_crc(self, stats: FrameStats) -> int:
        """The CRC of the recorded frame's ``(request, taxi)`` pairs, chained
        into :attr:`cum_crc`."""
        frame_pairs = [
            (rid, assigned.taxi_id)
            for assigned in self.assignments[len(self.assignments) - stats.dispatched_taxis:]
            for rid in assigned.request_ids
        ]
        self.cum_crc = frame_pairs_crc(frame_pairs, seed=self.cum_crc)
        return frame_pairs_crc(frame_pairs)

    def state_payload(self) -> dict[str, Any]:
        """The run state a resumed run needs, as pure JSON values.

        Only touched outcomes travel; the rest reconstruct from the
        trace.  The engine adds its own collaborators' state.
        """
        return {
            "time_s": self.time_s,
            "frames_run": self.frames_run,
            "arrival_cursor": self.arrival_cursor,
            "cum_crc": self.cum_crc,
            "queue": list(self.queue.keys()),
            "agents": [
                [a.taxi_id, a.location.x, a.location.y, a.available_at_s,
                 a.total_driven_km, a.completed_trips, a.served_requests]
                for a in self.agent_list
            ],
            "outcomes": [
                [o.request_id, o.dispatch_time_s, o.pickup_time_s,
                 o.dropoff_time_s, o.passenger_dissatisfaction,
                 o.group_size, o.taxi_id, o.abandoned]
                for o in self.outcomes
                if o.dispatch_time_s is not None or o.abandoned
            ],
            "assignments": [
                [r.frame_time_s, r.taxi_id, list(r.request_ids),
                 r.taxi_dissatisfaction, r.total_drive_km, r.revenue_km]
                for r in self.assignments
            ],
            "frame_stats": [
                [f.time_s, f.queue_length, f.idle_taxis,
                 f.dispatched_requests, f.dispatched_taxis, f.abandoned,
                 f.dispatch_ms]
                for f in self.frame_stats
            ],
        }

    def restore_state(self, payload: Mapping[str, Any]) -> None:
        """Adopt a :meth:`state_payload` snapshot wholesale.

        All floats crossed the snapshot as JSON (shortest-repr round
        trip, exact), so the restored run is *bit*-identical to the
        interrupted one, not approximately so.  The clock is left at the
        snapshot's frame; the engine advances it.
        """
        self.time_s = float(payload["time_s"])
        self.frames_run = int(payload["frames_run"])
        self.arrival_cursor = int(payload["arrival_cursor"])
        self.cum_crc = int(payload["cum_crc"])
        requests_by_id = {r.request_id: r for r in self.ordered}
        for rid in payload["queue"]:
            self.queue[rid] = requests_by_id[rid]
        for row in payload["agents"]:
            taxi_id, x, y, avail, driven, trips, served = row
            agent = self.agents[taxi_id]
            agent.location = Point(x, y)
            agent.available_at_s = avail
            agent.total_driven_km = driven
            agent.completed_trips = trips
            agent.served_requests = served
        self.snapshots[:] = [agent.snapshot() for agent in self.agent_list]
        self.available_at[:] = [agent.available_at_s for agent in self.agent_list]
        for row in payload["outcomes"]:
            outcome = self.outcomes_by_id[row[0]]
            outcome.dispatch_time_s = row[1]
            outcome.pickup_time_s = row[2]
            outcome.dropoff_time_s = row[3]
            outcome.passenger_dissatisfaction = row[4]
            outcome.group_size = row[5]
            outcome.taxi_id = row[6]
            outcome.abandoned = row[7]
        self.assignments.extend(
            AssignmentRecord(row[0], row[1], tuple(row[2]), row[3], row[4], row[5])
            for row in payload["assignments"]
        )
        self.frame_stats.extend(FrameStats(*row) for row in payload["frame_stats"])

    def result(
        self,
        name: str,
        frame_length_s: float,
        deadline_s: float,
        telemetry: dict[str, float | int],
        *,
        resilience: ResilienceReport | None = None,
        stability_audit: StabilityAuditReport | None = None,
    ) -> SimulationResult:
        """Assemble the run's :class:`SimulationResult`.

        Anything still queued is unserved; the final time is the clock,
        capped at ``deadline_s``.
        """
        revenue_by_taxi: dict[int, float] = {t: 0.0 for t in self.agents}
        for record in self.assignments:
            revenue_by_taxi[record.taxi_id] += record.revenue_km
        taxi_stats = {
            taxi_id: TaxiStats(
                taxi_id=taxi_id,
                driven_km=agent.total_driven_km,
                rides=agent.completed_trips,
                requests_served=agent.served_requests,
                revenue_km=revenue_by_taxi[taxi_id],
            )
            for taxi_id, agent in self.agents.items()
        }
        return SimulationResult(
            dispatcher_name=name,
            outcomes=self.outcomes,
            assignments=self.assignments,
            frames_run=self.frames_run,
            final_time_s=min(self.time_s, deadline_s),
            taxi_stats=taxi_stats,
            frame_stats=self.frame_stats,
            frame_length_s=frame_length_s,
            resilience=resilience,
            dispatch_telemetry=telemetry,
            stability_audit=stability_audit,
        )
