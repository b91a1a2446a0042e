"""Metric names, units and directions the benchmark emits.

``BENCHMARK.json`` at the repository root declares the same lists (with
the regression bounds of the end-to-end metrics); the harness
self-tests keep the two in step.
"""

from __future__ import annotations

#: (name, unit, better) of every end-to-end metric, reported by untraced
#: runs (``--trace 0``).
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("requests_per_s", "1/s", "higher"),
    ("frame_p50_ms", "ms", "lower"),
    ("frame_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("frames_ok_frac", "ratio", "higher"),
    ("service_rate", "ratio", "higher"),
    ("mean_dispatch_delay_min", "min", "lower"),
    ("mean_passenger_dissatisfaction_km", "km", "lower"),
    ("taxi_km_per_served_request", "km", "lower"),
    ("riders_per_trip", "count", "higher"),
)

#: End-to-end metrics read from the run's outputs rather than its clock.
QUALITY_METRICS: tuple[str, ...] = (
    "service_rate",
    "mean_dispatch_delay_min",
    "mean_passenger_dissatisfaction_km",
    "taxi_km_per_served_request",
    "riders_per_trip",
)

#: (name, unit, better) of every per-layer metric, reported by the traced
#: run (``--trace 1``).  The layer is the prefix before the first dot
#: (``simulation.frame_cache`` is a layer of its own).  Layers a workload
#: does not exercise report 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("repro.import_s", "s", "lower"),
    ("trace.build_workload_s", "s", "lower"),
    ("simulation.run_ms", "ms", "lower"),
    ("simulation.self_ms", "ms", "lower"),
    ("simulation.frames", "count", "lower"),
    ("simulation.active_frames", "count", "lower"),
    ("simulation.mean_taxi_dissatisfaction_km", "km", "lower"),
    ("simulation.shared_ride_fraction", "ratio", "higher"),
    ("simulation.frame_cache.pickup_matrix_ms", "ms", "lower"),
    ("simulation.frame_cache.pickup_matrix_calls", "count", "lower"),
    ("simulation.frame_cache.trip_km_ms", "ms", "lower"),
    ("simulation.frame_cache.trip_km_calls", "count", "lower"),
    ("simulation.frame_cache.hit_ratio", "ratio", "higher"),
    ("simulation.frame_cache.self_ms", "ms", "lower"),
    ("dispatch.dispatch_ms", "ms", "lower"),
    ("dispatch.calls", "count", "lower"),
    ("dispatch.self_ms", "ms", "lower"),
    ("dispatch.warm_hit_rate", "ratio", "higher"),
    ("dispatch.warm_fallbacks", "count", "lower"),
    ("dispatch.sharing_table_ms", "ms", "lower"),
    ("matching.warm_frame_solve_ms", "ms", "lower"),
    ("matching.warm_frame_solve_calls", "count", "lower"),
    ("matching.warm_rebuild_fraction", "ratio", "lower"),
    ("matching.pairs_scored", "count", "lower"),
    ("matching.cold_build_ms", "ms", "lower"),
    ("matching.cold_build_calls", "count", "lower"),
    ("matching.solve_ms", "ms", "lower"),
    ("matching.solve_calls", "count", "lower"),
    ("matching.check_ids_ms", "ms", "lower"),
    ("matching.self_ms", "ms", "lower"),
    ("streaming.match_epoch_ms", "ms", "lower"),
    ("streaming.match_epoch_calls", "count", "lower"),
    ("streaming.plan_ms", "ms", "lower"),
    ("streaming.full_plans", "count", "lower"),
    ("streaming.coarse_plans", "count", "lower"),
    ("streaming.queue_depths_ms", "ms", "lower"),
    ("streaming.event_ms", "ms", "lower"),
    ("streaming.events_pushed", "count", "lower"),
    ("streaming.events_popped", "count", "lower"),
    ("streaming.self_ms", "ms", "lower"),
    ("streaming.zone_warm_hit_rate", "ratio", "higher"),
    ("packing.enumerate_ms", "ms", "lower"),
    ("packing.enumerate_calls", "count", "lower"),
    ("packing.groups_evaluated", "count", "lower"),
    ("packing.groups_feasible", "count", "higher"),
    ("packing.feasible_ratio", "ratio", "higher"),
    ("packing.set_packing_ms", "ms", "lower"),
    ("packing.self_ms", "ms", "lower"),
    ("routing.shared_route_ms", "ms", "lower"),
    ("routing.shared_route_calls", "count", "lower"),
    ("routing.build_ride_group_ms", "ms", "lower"),
    ("routing.self_ms", "ms", "lower"),
    ("geometry.pairwise_calls", "count", "lower"),
    ("geometry.pairwise_cells", "count", "lower"),
    ("geometry.scalar_calls", "count", "lower"),
    ("geometry.ms", "ms", "lower"),
    ("resilience.ladder_overhead_ms", "ms", "lower"),
    ("resilience.fallback_frames", "count", "lower"),
    ("resilience.commit_ms", "ms", "lower"),
    ("resilience.journal_ms", "ms", "lower"),
    ("resilience.journal_appends", "count", "lower"),
    ("resilience.journal_bytes", "bytes", "lower"),
    ("resilience.snapshot_ms", "ms", "lower"),
    ("resilience.snapshots", "count", "lower"),
    ("resilience.snapshot_bytes_max", "bytes", "lower"),
    ("resilience.audit_ms", "ms", "lower"),
    ("resilience.frames_audited", "count", "higher"),
    ("resilience.audit_divergences", "count", "lower"),
    ("resilience.finish_ms", "ms", "lower"),
    ("resilience.self_ms", "ms", "lower"),
    ("trace.residual_ms", "ms", "lower"),
    ("trace.residual_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Layers whose self times partition ``simulation.run_ms``.
LAYERS: tuple[str, ...] = (
    "simulation",
    "simulation.frame_cache",
    "streaming",
    "dispatch",
    "matching",
    "packing",
    "routing",
    "geometry",
    "resilience",
)

UNITS: dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

from perfbench.workloads import WORKLOADS as ALL_WORKLOADS  # noqa: E402

#: The design map: (per-layer metrics, workloads where their layer does
#: work, end-to-end metrics a change to that layer should move there).
#: On every other workload the prediction for those end-to-end metrics
#: is no change.  perfbench/README.md gives the reasoning.
LAYER_MAP: tuple[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]], ...] = (
    (("repro.import_s", "trace.build_workload_s"), ALL_WORKLOADS, ("setup_s",)),
    (
        ("simulation.run_ms", "simulation.self_ms", "simulation.frames",
         "simulation.active_frames"),
        ("durable-day", "sharing-rush"),
        ("requests_per_s",),
    ),
    (
        ("simulation.frame_cache.pickup_matrix_ms", "simulation.frame_cache.pickup_matrix_calls"),
        ("durable-day",),
        ("requests_per_s",),
    ),
    (
        ("simulation.frame_cache.trip_km_ms", "simulation.frame_cache.trip_km_calls",
         "simulation.frame_cache.hit_ratio", "simulation.frame_cache.self_ms"),
        ("cityday-stream", "durable-day"),
        ("requests_per_s",),
    ),
    (
        ("dispatch.dispatch_ms", "dispatch.calls", "dispatch.self_ms"),
        ("durable-day", "sharing-rush"),
        ("frame_p50_ms", "frame_p99_ms"),
    ),
    (("dispatch.warm_hit_rate", "dispatch.warm_fallbacks"), ("durable-day",), ("frame_p50_ms",)),
    (("dispatch.sharing_table_ms",), ("sharing-rush",), ("frame_p50_ms", "frame_p99_ms")),
    (
        ("matching.warm_frame_solve_ms", "matching.warm_frame_solve_calls",
         "matching.warm_rebuild_fraction", "matching.pairs_scored", "matching.solve_ms",
         "matching.solve_calls", "matching.self_ms"),
        ("cityday-stream", "durable-day"),
        ("frame_p50_ms", "requests_per_s"),
    ),
    (
        ("matching.cold_build_ms", "matching.cold_build_calls"),
        ("cityday-stream", "durable-day"),
        ("frame_p50_ms", "requests_per_s"),
    ),
    (("matching.check_ids_ms",), ("cityday-stream",), ("requests_per_s",)),
    (
        ("streaming.match_epoch_ms", "streaming.match_epoch_calls", "streaming.plan_ms",
         "streaming.full_plans", "streaming.coarse_plans", "streaming.queue_depths_ms",
         "streaming.event_ms", "streaming.events_pushed", "streaming.events_popped",
         "streaming.self_ms", "streaming.zone_warm_hit_rate"),
        ("cityday-stream",),
        ("requests_per_s", "frame_p99_ms"),
    ),
    (
        ("packing.enumerate_ms", "packing.enumerate_calls", "packing.groups_evaluated",
         "packing.groups_feasible", "packing.feasible_ratio", "packing.set_packing_ms",
         "packing.self_ms", "routing.shared_route_ms", "routing.shared_route_calls",
         "routing.build_ride_group_ms", "routing.self_ms", "simulation.shared_ride_fraction"),
        ("sharing-rush",),
        ("requests_per_s", "frame_p99_ms", "riders_per_trip"),
    ),
    (
        ("geometry.pairwise_calls", "geometry.pairwise_cells", "geometry.scalar_calls",
         "geometry.ms"),
        ALL_WORKLOADS,
        ("requests_per_s",),
    ),
    (
        ("resilience.ladder_overhead_ms", "resilience.fallback_frames"),
        ("durable-day",),
        ("frame_p50_ms", "frames_ok_frac"),
    ),
    (
        ("resilience.commit_ms", "resilience.journal_ms", "resilience.journal_appends",
         "resilience.journal_bytes", "resilience.snapshot_ms", "resilience.snapshots",
         "resilience.snapshot_bytes_max", "resilience.audit_ms", "resilience.frames_audited",
         "resilience.audit_divergences", "resilience.finish_ms", "resilience.self_ms"),
        ("durable-day",),
        ("requests_per_s", "peak_rss_mb"),
    ),
    (
        ("simulation.mean_taxi_dissatisfaction_km",),
        ALL_WORKLOADS,
        ("taxi_km_per_served_request",),
    ),
    (("trace.residual_ms", "trace.residual_frac", "trace.overhead_frac"), ALL_WORKLOADS, ()),
)

#: Per-layer metrics that read 0 on an honest run wherever their layer
#: runs (failure counters, and the tracer's own bookkeeping).
ZERO_ON_HONEST_RUNS = frozenset({
    "dispatch.warm_fallbacks",
    "resilience.fallback_frames",
    "resilience.audit_divergences",
    "trace.residual_ms",
    "trace.residual_frac",
    "trace.overhead_frac",
})
