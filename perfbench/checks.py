"""Output checks that need no golden files.

A run's outputs are summarised by a digest over every outcome and every
assignment, floats included bit for bit (``float.hex``).  Digests of
runs that must agree — repeated runs of one workload and seed, a
workload and its reference path — are compared by the orchestrator.
The structural invariants below hold for any correct run of any
dispatcher.
"""

from __future__ import annotations

import hashlib
from typing import Any


def _hex(value: float | None) -> str:
    return "-" if value is None else float(value).hex()


def result_digest(results: list[Any]) -> str:
    """SHA-256 over the outcomes and assignments of ``SimulationResult``\ s."""
    h = hashlib.sha256()
    for result in results:
        _update(h, result)
    return h.hexdigest()


def _update(h: Any, result: Any) -> None:
    for o in result.outcomes:
        h.update(
            (
                f"o{o.request_id},{o.taxi_id},{_hex(o.dispatch_time_s)},"
                f"{_hex(o.pickup_time_s)},{_hex(o.dropoff_time_s)},"
                f"{_hex(o.passenger_dissatisfaction)},{o.group_size},{int(o.abandoned)};"
            ).encode()
        )
    for a in result.assignments:
        h.update(
            (
                f"a{_hex(a.frame_time_s)},{a.taxi_id},{a.request_ids},"
                f"{_hex(a.taxi_dissatisfaction)},{_hex(a.total_drive_km)},"
                f"{_hex(a.revenue_km)};"
            ).encode()
        )
    h.update(b"|")


def structural_failures(result: Any, n_requests: int) -> list[str]:
    """Invariants of any valid run: every request resolved once, no request
    dispatched twice, no taxi given two assignments in one frame, and the
    per-frame counters consistent with the assignment log."""
    failures: list[str] = []
    if len(result.outcomes) != n_requests:
        failures.append(f"{len(result.outcomes)} outcomes for {n_requests} requests")
    seen: set[int] = set()
    taxis_in_frame: set[tuple[float, int]] = set()
    for a in result.assignments:
        key = (a.frame_time_s, a.taxi_id)
        if key in taxis_in_frame:
            failures.append(f"taxi {a.taxi_id} assigned twice at t={a.frame_time_s}")
            break
        taxis_in_frame.add(key)
        if not a.request_ids or seen.intersection(a.request_ids):
            failures.append(f"request dispatched twice or empty group: {a.request_ids}")
            break
        seen.update(a.request_ids)
    served = 0
    for o in result.outcomes:
        if o.taxi_id is not None:
            served += 1
            if o.request_id not in seen or o.abandoned or o.dispatch_time_s is None:
                failures.append(f"outcome {o.request_id} inconsistent with assignments")
                break
    if served != len(seen):
        failures.append(f"{served} served outcomes for {len(seen)} dispatched requests")
    dispatched = sum(f.dispatched_requests for f in result.frame_stats)
    if dispatched != len(seen):
        failures.append(f"frame stats dispatched {dispatched}, assignments {len(seen)}")
    if sum(f.dispatched_taxis for f in result.frame_stats) != len(result.assignments):
        failures.append("frame stats taxi count disagrees with the assignment log")
    if len(result.frame_stats) != result.frames_run or result.frames_run < 1:
        failures.append("frame series length disagrees with frames_run")
    return failures


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def quality(results: list[Any]) -> dict[str, float]:
    """Per-party quality over the pooled days: the quantities of
    ``SimulationResult.summary()`` plus the taxi-side and sharing figures
    the end-to-end metrics use."""
    outcomes = [o for r in results for o in r.outcomes]
    assignments = [a for r in results for a in r.assignments]
    served = [o for o in outcomes if o.served]
    delays = [d for r in results for d in r.dispatch_delays_min()]
    shared = sum(1 for a in assignments if a.group_size > 1)
    return {
        "service_rate": len(served) / len(outcomes) if outcomes else 0.0,
        "mean_dispatch_delay_min": _mean(delays),
        "mean_passenger_dissatisfaction_km": _mean(
            [d for r in results for d in r.passenger_dissatisfactions()]
        ),
        "mean_taxi_dissatisfaction_km": _mean([a.taxi_dissatisfaction for a in assignments]),
        "shared_ride_fraction": shared / len(assignments) if assignments else 0.0,
        "taxi_km_per_served_request": (
            sum(a.total_drive_km for a in assignments) / len(served) if served else 0.0
        ),
        "riders_per_trip": len(served) / len(assignments) if assignments else 0.0,
    }


def frame_series(results: list[Any]) -> tuple[list[float], list[bool]]:
    """Per-frame dispatch wall times of the pooled days, and which frames
    were active (queued requests and idle taxis both present, so the
    engine dispatched)."""
    frames = [f for r in results for f in r.frame_stats]
    return (
        [f.dispatch_ms for f in frames],
        [f.queue_length > 0 and f.idle_taxis > 0 for f in frames],
    )


def frames_not_ok(results: list[Any]) -> int:
    """Active frames not answered cleanly by the primary path, over the
    pooled days."""
    return sum(_frames_not_ok(r) for r in results)


def _frames_not_ok(result: Any) -> int:
    """Active frames over the frame length, answered by a ladder fallback,
    in an epoch with a degraded zone group, or with an audit divergence."""
    budget_ms = result.frame_length_s * 1e3
    bad_times = {
        f.time_s
        for f in result.frame_stats
        if f.queue_length > 0 and f.idle_taxis > 0 and f.dispatch_ms > budget_ms
    }
    if result.resilience is not None:
        bad_times.update(r.time_s for r in result.resilience.frames if r.rung_index != 0)
    if result.stability_audit is not None:
        bad_times.update(r.time_s for r in result.stability_audit.frames if r.diverged)
    degraded = int(result.dispatch_telemetry.get("zone_groups_degraded", 0))
    return len(bad_times) + degraded
