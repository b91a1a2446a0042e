"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps the public callables of each ``repro`` layer where its
caller binds them — the class attribute for methods, the name in the
importing module for functions, the oracle instance for distance calls —
so no span lives inside ``src/``.  Every wrapped call pushes a frame on
one stack; when it returns, its duration is charged to its name and to
its parent's child time, so a layer's self time is its span time minus
its child spans, and the self times of all layers partition the root
span (``simulation.run``).

Spans are kept in memory and written once, at the end, by the caller.
Calls that happen hundreds of thousands of times a run (scalar distances,
event-queue operations, per-group routing) are aggregated into their
totals without a span record each.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Callable
from typing import Any

from perfbench.metrics import LAYERS


def layer_of(name: str) -> str:
    """``matching.cold_build`` → ``matching``; ``simulation.frame_cache.trip_km``
    → ``simulation.frame_cache``."""
    return name.rsplit(".", 1)[0]


class Tracer:
    """Span stack, per-name totals and counters for one traced run."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        #: (span id, parent id, name, start_s, end_s) of recorded spans.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list[float]] = []
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        record: bool = True,
        after: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``after(result)`` runs once the
        span has closed (counters derived from the return value)."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = -1
            if record:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, float(span_id)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                parent_id = -1
                if stack:
                    stack[-1][0] += duration
                    parent_id = int(stack[-1][1])
                if record:
                    spans.append((span_id, parent_id, name, start, end))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def count_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> bool:
        """Replace ``owner.attr`` by its traced version.

        ``owner`` is a class, a module (or its dotted name) or an
        instance.  Returns ``False`` when the attribute does not exist,
        so a layer a later version removed reports 0 instead of failing.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        if not hasattr(owner, attr):
            return False
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._undo.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(name, original, **options))
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def ms(self, *names: str) -> float:
        return sum(self.totals.get(n, [0, 0.0, 0.0])[1] for n in names) * 1e3

    def self_ms_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + self_s * 1e3
        return out


def install(tracer: Tracer, oracles: list[Any]) -> None:
    """Wrap every layer boundary the workloads cross."""
    from repro.dispatch.nonsharing import GreedyNearestDispatcher, NSTDDispatcher
    from repro.dispatch.sharing import STDDispatcher
    from repro.resilience.auditor import StabilityAuditor
    from repro.resilience.checkpoint import CheckpointStore, DurabilityManager
    from repro.resilience.journal import JournalWriter
    from repro.simulation.engine import Simulator
    from repro.simulation.frame_cache import FrameDistanceCache
    from repro.streaming.engine import StreamingEngine
    from repro.streaming.events import EventQueue
    from repro.streaming.matcher import ZoneMatcher

    p = tracer.patch
    nstd = "repro.dispatch.nonsharing.nstd"
    std = "repro.dispatch.sharing.std"
    sharding = "repro.matching.sharding"
    matcher = "repro.streaming.matcher"
    feasibility = "repro.packing.feasibility"

    # Roots: the engines' run() calls.
    p(Simulator, "run", "simulation.run")
    p(StreamingEngine, "run", "streaming.run")

    # simulation.frame_cache
    for method in ("pickup_matrix", "trip_km", "pickup_gap_matrix", "prime_trip_km"):
        p(FrameDistanceCache, method, f"simulation.frame_cache.{method}")
    for method in ("trip_distance", "begin_frame", "retire_requests"):
        p(FrameDistanceCache, method, f"simulation.frame_cache.{method}", record=False)

    # dispatch
    for cls in (NSTDDispatcher, STDDispatcher, GreedyNearestDispatcher):
        p(cls, "dispatch", "dispatch.dispatch")
    p(std, "build_sharing_table", "dispatch.sharing_table")

    # matching
    for module in (nstd, matcher):
        p(module, "warm_frame_solve", "matching.warm_frame_solve")
        p(module, "_check_global_ids", "matching.check_ids")
    for module in (nstd, sharding):
        p(module, "build_nonsharing_arrays", "matching.cold_build")
    for module in (nstd, std, sharding):
        p(module, "passenger_optimal", "matching.solve")

    # streaming
    p(ZoneMatcher, "match_epoch", "streaming.match_epoch")
    p(matcher, "plan_epoch_zones", "streaming.plan",
      after=lambda _: tracer.count("streaming.full_plans"))
    p(matcher, "coarse_epoch_plan", "streaming.plan",
      after=lambda _: tracer.count("streaming.coarse_plans"))
    p("repro.streaming.engine", "zone_queue_depths", "streaming.queue_depths")
    p(EventQueue, "push", "streaming.event_push", record=False)
    p(EventQueue, "pop", "streaming.event_pop", record=False)

    # packing
    p(std, "enumerate_feasible_groups", "packing.enumerate")
    for packer in ("local_search_packing", "greedy_set_packing", "exact_set_packing"):
        p(std, packer, "packing.set_packing")
    p(feasibility, "group_is_feasible", "packing.group_is_feasible", record=False,
      after=lambda ok: tracer.count("packing.groups_feasible", float(bool(ok))))

    # routing
    p(feasibility, "feasible_shared_route", "routing.shared_route", record=False)
    for module in (feasibility, std):
        p(module, "build_ride_group", "routing.build_ride_group", record=False)

    # geometry: each day's oracle instance, shared by its engine, frame
    # cache and dispatchers
    for oracle in oracles:
        p(oracle, "distance", "geometry.scalar", record=False)
        for method in ("pairwise", "paired", "distances", "pairwise_packed", "paired_packed"):
            p(oracle, method, "geometry.batch", record=False,
              after=lambda out: tracer.count("geometry.pairwise_cells", float(out.size)))

    # resilience
    p(DurabilityManager, "commit_frame", "resilience.commit")
    p(DurabilityManager, "finish_run", "resilience.finish")
    p(JournalWriter, "write_frame", "resilience.journal", record=False)
    p(CheckpointStore, "write", "resilience.snapshot",
      after=lambda path: tracer.count_max("resilience.snapshot_bytes_max",
                                          float(path.stat().st_size)))
    p(StabilityAuditor, "audit_frame", "resilience.audit")


def _pooled_telemetry(results: list[Any]) -> dict[str, float]:
    pooled: dict[str, float] = {}
    for result in results:
        for key, value in result.dispatch_telemetry.items():
            pooled[key] = pooled.get(key, 0.0) + float(value)
    return pooled


def per_layer_metrics(
    tracer: Tracer, results: list[Any], quality: dict[str, float], journal_bytes: float
) -> dict[str, float]:
    """Every per-layer metric of ``perfbench.metrics.PER_LAYER`` except the
    set-up times and the tracing overhead, which the worker and the
    orchestrator supply."""
    telemetry = _pooled_telemetry(results)
    warm = telemetry.get("warm_frames", 0.0)
    solved = warm + telemetry.get("cold_frames", 0.0)
    full_pairs = telemetry.get("full_pairs_warm", 0.0)
    perf = {
        "warm_hit_rate": warm / solved if solved else 0.0,
        "warm_fallbacks": telemetry.get("warm_fallbacks", 0.0),
        "warm_rebuild_fraction": (
            telemetry.get("pairs_scored_warm", 0.0) / full_pairs if full_pairs else 0.0
        ),
    }
    frame_stats = [f for r in results for f in r.frame_stats]
    ladder_frames = [f for r in results if r.resilience is not None for f in r.resilience.frames]
    audit_frames = [
        f for r in results if r.stability_audit is not None for f in r.stability_audit.frames
    ]
    streaming = tracer.calls("streaming.run") > 0
    self_ms = tracer.self_ms_by_layer()
    c = tracer.counters
    run_ms = tracer.ms("simulation.run", "streaming.run")
    dispatch_ms = tracer.ms("dispatch.dispatch")
    active = [f for f in frame_stats if f.queue_length > 0 and f.idle_taxis > 0]
    hits = float(telemetry.get("cache_hits", 0))
    lookups = hits + float(telemetry.get("cache_misses", 0))
    evaluated = tracer.calls("packing.group_is_feasible")
    has_ladder = any(r.resilience is not None for r in results)
    out = {
        "simulation.run_ms": run_ms,
        "simulation.self_ms": self_ms["simulation"],
        "simulation.frames": float(len(frame_stats)),
        "simulation.active_frames": float(len(active)),
        "simulation.mean_taxi_dissatisfaction_km": quality["mean_taxi_dissatisfaction_km"],
        "simulation.shared_ride_fraction": quality["shared_ride_fraction"],
        "simulation.frame_cache.pickup_matrix_ms": tracer.ms("simulation.frame_cache.pickup_matrix"),
        "simulation.frame_cache.pickup_matrix_calls": tracer.calls("simulation.frame_cache.pickup_matrix"),
        "simulation.frame_cache.trip_km_ms": tracer.ms("simulation.frame_cache.trip_km"),
        "simulation.frame_cache.trip_km_calls": tracer.calls("simulation.frame_cache.trip_km"),
        "simulation.frame_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "simulation.frame_cache.self_ms": self_ms["simulation.frame_cache"],
        "dispatch.dispatch_ms": dispatch_ms,
        "dispatch.calls": tracer.calls("dispatch.dispatch"),
        "dispatch.self_ms": self_ms["dispatch"],
        "dispatch.warm_hit_rate": 0.0 if streaming else perf.get("warm_hit_rate", 0.0),
        "dispatch.warm_fallbacks": 0.0 if streaming else perf.get("warm_fallbacks", 0.0),
        "dispatch.sharing_table_ms": tracer.ms("dispatch.sharing_table"),
        "matching.warm_frame_solve_ms": tracer.ms("matching.warm_frame_solve"),
        "matching.warm_frame_solve_calls": tracer.calls("matching.warm_frame_solve"),
        "matching.warm_rebuild_fraction": perf.get("warm_rebuild_fraction", 0.0),
        "matching.pairs_scored": float(telemetry.get("pairs_scored_warm", 0)),
        "matching.cold_build_ms": tracer.ms("matching.cold_build"),
        "matching.cold_build_calls": tracer.calls("matching.cold_build"),
        "matching.solve_ms": tracer.ms("matching.solve"),
        "matching.solve_calls": tracer.calls("matching.solve"),
        "matching.check_ids_ms": tracer.ms("matching.check_ids"),
        "matching.self_ms": self_ms["matching"],
        "streaming.match_epoch_ms": tracer.ms("streaming.match_epoch"),
        "streaming.match_epoch_calls": tracer.calls("streaming.match_epoch"),
        "streaming.plan_ms": tracer.ms("streaming.plan"),
        "streaming.full_plans": c.get("streaming.full_plans", 0.0),
        "streaming.coarse_plans": c.get("streaming.coarse_plans", 0.0),
        "streaming.queue_depths_ms": tracer.ms("streaming.queue_depths"),
        "streaming.event_ms": tracer.ms("streaming.event_push", "streaming.event_pop"),
        "streaming.events_pushed": tracer.calls("streaming.event_push"),
        "streaming.events_popped": tracer.calls("streaming.event_pop"),
        "streaming.self_ms": self_ms["streaming"],
        "streaming.zone_warm_hit_rate": perf.get("warm_hit_rate", 0.0) if streaming else 0.0,
        "packing.enumerate_ms": tracer.ms("packing.enumerate"),
        "packing.enumerate_calls": tracer.calls("packing.enumerate"),
        "packing.groups_evaluated": evaluated,
        "packing.groups_feasible": c.get("packing.groups_feasible", 0.0),
        "packing.feasible_ratio": (
            c.get("packing.groups_feasible", 0.0) / evaluated if evaluated else 0.0
        ),
        "packing.set_packing_ms": tracer.ms("packing.set_packing"),
        "packing.self_ms": self_ms["packing"],
        "routing.shared_route_ms": tracer.ms("routing.shared_route"),
        "routing.shared_route_calls": tracer.calls("routing.shared_route"),
        "routing.build_ride_group_ms": tracer.ms("routing.build_ride_group"),
        "routing.self_ms": self_ms["routing"],
        "geometry.pairwise_calls": tracer.calls("geometry.batch"),
        "geometry.pairwise_cells": c.get("geometry.pairwise_cells", 0.0),
        "geometry.scalar_calls": tracer.calls("geometry.scalar"),
        "geometry.ms": tracer.ms("geometry.scalar", "geometry.batch"),
        "resilience.ladder_overhead_ms": (
            sum(f.dispatch_ms for f in frame_stats) - dispatch_ms if has_ladder else 0.0
        ),
        "resilience.fallback_frames": float(sum(1 for r in ladder_frames if r.rung_index != 0)),
        "resilience.commit_ms": tracer.ms("resilience.commit"),
        "resilience.journal_ms": tracer.ms("resilience.journal"),
        "resilience.journal_appends": tracer.calls("resilience.journal"),
        "resilience.journal_bytes": journal_bytes,
        "resilience.snapshot_ms": tracer.ms("resilience.snapshot"),
        "resilience.snapshots": tracer.calls("resilience.snapshot"),
        "resilience.snapshot_bytes_max": c.get("resilience.snapshot_bytes_max", 0.0),
        "resilience.audit_ms": tracer.ms("resilience.audit"),
        "resilience.frames_audited": float(len(audit_frames)),
        "resilience.audit_divergences": float(sum(1 for f in audit_frames if f.diverged)),
        "resilience.finish_ms": tracer.ms("resilience.finish"),
        "resilience.self_ms": self_ms["resilience"],
    }
    residual = run_ms - sum(self_ms[layer] for layer in LAYERS)
    out["trace.residual_ms"] = residual
    out["trace.residual_frac"] = residual / run_ms if run_ms else 0.0
    return {k: float(v) for k, v in out.items()}
