#!/usr/bin/env python
"""Chaos smoke run: a seeded fault schedule against a small city-day.

Injects both fault species at once — latency spikes (virtual clock)
and transient oracle errors — and asserts the resilience layer's core
invariants:

* every frame is answered: zero dropped frames on every algorithm;
* every algorithm serves some requests, so the run is not vacuous;
* the resilience report is non-empty and every degraded frame is
  attributed to a rung and a trigger;
* injected faults were actually absorbed (the run exercised the layer),
  by every algorithm except those in :data:`INERT_UNDER_PLAN`;
* with faults disabled, the resilience-protected run is bit-identical
  to the unprotected baseline.

``--crash-recovery`` runs the durability matrix instead: for each of
the dispatch modes (cold and warm NSTD-P, STD-P, whose frames run warm,
and cold NSTD-P under a seeded fault injector, whose RNG fingerprint
every replayed frame must reproduce), a child process running a
journaled+checkpointed simulation behind the degradation ladder is
SIGKILLed at several frame offsets (at the frame boundary, after the
journal append, and mid-frame, before it), then the run is resumed from
the surviving artifacts and asserted bit-identical — every outcome,
assignment and taxi-total field, and the frame and resilience series
less their wall-clock fields — to an uninterrupted reference.  Each
case also records its largest snapshot and its journal size, and fails
if its newest snapshot carries run history (which lives only in the
journal) or state derived from the trace (the trip table, which every
run measures at its start).  ``--artifacts-dir`` keeps the journals and snapshots on disk
for post-mortem (CI uploads them on failure).

Exit code 0 on success, 1 with a failure listing otherwise.  Both fault
and crash schedules are deterministic, so failures reproduce exactly.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from dataclasses import astuple, replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.dispatch.nonsharing import NSTDDispatcher  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentScale,
    build_workload,
    city_simulation_config,
    make_dispatcher,
    run_city_experiment,
)
from repro.geometry import EuclideanDistance  # noqa: E402
from repro.resilience import (  # noqa: E402
    CrashPlan,
    DurabilityConfig,
    DurabilityManager,
    FaultInjector,
    FaultPlan,
    ResiliencePolicy,
    resume_simulation,
)
from repro.simulation import Simulator  # noqa: E402
from repro.trace import boston_profile  # noqa: E402

ALGORITHMS = ("Greedy", "NSTD-P", "STD-P")

#: Algorithms the fault plan cannot reach, each with the reason; every
#: other algorithm must absorb some fault or degrade some frame.
INERT_UNDER_PLAN = {
    "Greedy": "one batched oracle call per frame at factor 0.02 draws no fault",
}

#: Dispatch-mode matrix of the crash-recovery harness: cold and warm
#: NSTD-P, STD-P, and cold NSTD-P under a seeded fault injector (a
#: resume refuses warm dispatch with an armed injector).
CRASH_MODES = ("cold", "warm", "std-p", "faulted")

#: (frame offset, crash phase) matrix.  With ``CHECKPOINT_EVERY = 8``
#: this covers the three recovery shapes: frame 5 crashes before any
#: snapshot exists (journal-only replay from frame 0), frame 12 resumes
#: from snapshot 7 and replays the rest, and frame 23 crashes right
#: after writing the snapshot it then resumes from (zero replay).
CRASH_CASES = ((5, "boundary"), (12, "mid-frame"), (23, "boundary"))

CHECKPOINT_EVERY = 8

#: Snapshot state keys of run history, which only the journal may carry.
HISTORY_KEYS = frozenset({"outcomes", "assignments", "frame_stats", "resilience", "audit"})

#: Snapshot state keys derived from the immutable trace (the trip table),
#: which a run rebuilds at its start: a snapshot holds only mutable state.
TRACE_KEYS = frozenset({"trips"})


def comparable(result):
    """Everything observable about a run except wall-clock telemetry:
    every outcome, assignment and taxi-total field, and the frame,
    resilience and audit series less their timing field."""
    return {
        "frames_run": result.frames_run,
        "outcomes": [astuple(o) for o in result.outcomes],
        "assignments": [astuple(a) for a in result.assignments],
        "taxi_stats": result.taxi_stats,
        "frame_stats": [replace(f, dispatch_ms=0.0) for f in result.frame_stats],
        "resilience": None if result.resilience is None else [
            replace(r, elapsed_s=0.0) for r in result.resilience.frames
        ],
        "audit": None if result.stability_audit is None else [
            replace(r, audit_ms=0.0) for r in result.stability_audit.frames
        ],
    }


def run_chaos(seed: int = 13) -> tuple[dict, list[str]]:
    """One chaos smoke run; returns (summary, failures)."""
    scale = ExperimentScale(factor=0.02, seed=11, hours=(8.0, 9.0))
    profile = boston_profile()
    plan = FaultPlan(
        seed=seed,
        latency_rate=0.08,
        latency_s=45.0,
        error_rate=0.01,
        per_call_cost_s=0.05,
    )
    policy = ResiliencePolicy(budget_fraction=0.5, transient_retries=2)

    chaotic = run_city_experiment(profile, ALGORITHMS, scale, faults=plan, resilience=policy)
    baseline = run_city_experiment(profile, ALGORITHMS, scale)
    calm = run_city_experiment(profile, ALGORITHMS, scale, resilience=policy)

    failures: list[str] = []
    summary: dict = {}
    total_degraded = 0
    total_faults = 0
    for name, result in chaotic.items():
        report = result.resilience
        if report is None or len(report) == 0:
            failures.append(f"{name}: empty resilience report")
            continue
        if report.dropped_frames != 0:
            failures.append(f"{name}: {report.dropped_frames} dropped frames")
        if result.service_rate <= 0.0:
            failures.append(f"{name}: served no requests")
        for frame in report.degraded_frames:
            if frame.trigger is None:
                failures.append(f"{name}: degraded frame at t={frame.time_s} has no trigger")
            if not frame.rung:
                failures.append(f"{name}: degraded frame at t={frame.time_s} has no rung")
        if name not in INERT_UNDER_PLAN and not (
            report.degraded_frames or report.faults_absorbed
        ):
            failures.append(f"{name}: absorbed no fault and degraded no frame")
        total_degraded += len(report.degraded_frames)
        total_faults += report.faults_absorbed
        summary[name] = {
            "frames": len(report),
            "served_by_rung": report.served_by_rung(),
            "faults_absorbed": report.faults_absorbed,
            "service_rate": result.service_rate,
        }
    if total_degraded + total_faults == 0:
        failures.append("no degradations or faults observed: the chaos schedule is inert")

    for name in baseline:
        # Only the protected run has a resilience report to compare.
        if comparable(calm[name]) | {"resilience": None} != comparable(baseline[name]):
            failures.append(f"{name}: faults-off resilient run differs from baseline")

    summary["total_degraded_frames"] = total_degraded
    summary["total_faults_absorbed"] = total_faults
    summary["exempt"] = INERT_UNDER_PLAN
    return summary, failures


def crash_workload():
    """The deterministic workload every crash-recovery process rebuilds.

    Parent and SIGKILLed children construct it independently from the
    same seeds; the trace generators are deterministic, so both see the
    identical fleet and request stream.  The morning hour is moved to
    start at t = 0 and simulated to its length, so every crash offset
    falls in frames that dispatch and carry history.
    """
    hours = (8.0, 9.0)
    scale = ExperimentScale(factor=0.02, seed=11, hours=hours)
    profile = boston_profile()
    start_s = hours[0] * 3600.0
    sim_config = replace(
        city_simulation_config(profile.scaled(scale.factor)),
        horizon_s=(hours[1] - hours[0]) * 3600.0,
    )
    fleet, requests = build_workload(profile, scale)
    requests = [replace(r, request_time_s=r.request_time_s - start_s) for r in requests]
    return sim_config, fleet, requests


def make_crash_simulator(
    mode: str, sim_config, *, durability: DurabilityManager | None = None
) -> Simulator:
    oracle = EuclideanDistance()
    policy = ResiliencePolicy()
    if mode == "faulted":
        # The smoke run's fault schedule (see run_chaos).
        injector = FaultInjector(
            13, latency_rate=0.08, latency_s=45.0, error_rate=0.01, per_call_cost_s=0.05
        )
        oracle = injector.wrap(oracle)
        policy = policy.with_injector(injector)
    if mode == "std-p":
        dispatcher = make_dispatcher("STD-P", oracle, sim_config.dispatch)
    else:
        dispatcher = NSTDDispatcher(oracle, sim_config.dispatch, warm_start=mode == "warm")
    return Simulator(dispatcher, oracle, sim_config, resilience=policy, durability=durability)


def crash_child(directory: str, mode: str, frame: int, phase: str) -> int:
    """Internal child entry point: run durably until the plan SIGKILLs us."""
    sim_config, fleet, requests = crash_workload()
    manager = DurabilityManager(
        DurabilityConfig(Path(directory), checkpoint_every_frames=CHECKPOINT_EVERY),
        crash_plan=CrashPlan(frame=frame, phase=phase),
    )
    make_crash_simulator(mode, sim_config, durability=manager).run(fleet, requests)
    print(
        f"crash child survived: plan ({frame}, {phase}) never fired",
        file=sys.stderr,
    )
    return 1


def run_crash_recovery(artifacts_dir: Path) -> tuple[dict, list[str]]:
    """The SIGKILL/resume matrix; returns (summary, failures)."""
    sim_config, fleet, requests = crash_workload()
    failures: list[str] = []
    summary: dict = {}
    references = {
        mode: comparable(make_crash_simulator(mode, sim_config).run(fleet, requests))
        for mode in CRASH_MODES
    }
    for mode in CRASH_MODES:
        for frame, phase in CRASH_CASES:
            case = f"{mode}@{frame}/{phase}"
            directory = artifacts_dir / f"{mode}-{frame}-{phase}"
            child = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--crash-child",
                    str(directory),
                    mode,
                    str(frame),
                    phase,
                ],
                capture_output=True,
                text=True,
            )
            if child.returncode != -signal.SIGKILL:
                failures.append(
                    f"{case}: child exited {child.returncode}, expected "
                    f"SIGKILL ({child.stderr.strip()[:200]})"
                )
                continue
            manager = DurabilityManager(
                DurabilityConfig(directory, checkpoint_every_frames=CHECKPOINT_EVERY)
            )
            simulator = make_crash_simulator(mode, sim_config, durability=manager)
            try:
                with warnings.catch_warnings():
                    # A torn journal tail is the expected crash signature.
                    warnings.simplefilter("ignore", RuntimeWarning)
                    resumed = resume_simulation(simulator, fleet, requests)
            except Exception as exc:  # noqa: BLE001 - harness reports, never raises
                failures.append(f"{case}: resume failed: {exc}")
                continue
            if comparable(resumed) != references[mode]:
                failures.append(f"{case}: resumed run differs from uninterrupted reference")
                continue
            newest = manager.store.latest_valid()
            leaked = sorted((HISTORY_KEYS | TRACE_KEYS) & set(newest["state"])) if newest else []
            if leaked:
                failures.append(
                    f"{case}: newest snapshot carries run history or trace-derived state {leaked}"
                )
                continue
            summary[case] = {
                "frames": resumed.frames_run,
                "replayed_verified": int(
                    resumed.perf_stats().get("replay_frames_verified", 0)
                ),
                "snapshot_bytes_max": max(
                    (path.stat().st_size for path in manager.store.snapshot_paths()),
                    default=0,
                ),
                "journal_bytes": manager.journal_path.stat().st_size,
            }
    summary["cases"] = len(CRASH_MODES) * len(CRASH_CASES)
    return summary, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=13, help="fault schedule seed")
    parser.add_argument(
        "--crash-recovery",
        action="store_true",
        help="run the SIGKILL crash/resume matrix instead of the fault smoke",
    )
    parser.add_argument(
        "--artifacts-dir",
        type=Path,
        default=None,
        help="keep journals/snapshots here (default: a temp dir, removed on success)",
    )
    parser.add_argument(
        "--crash-child",
        nargs=4,
        metavar=("DIR", "MODE", "FRAME", "PHASE"),
        default=None,
        help=argparse.SUPPRESS,  # internal: the process the plan SIGKILLs
    )
    args = parser.parse_args(argv)

    if args.crash_child is not None:
        directory, mode, frame, phase = args.crash_child
        return crash_child(directory, mode, int(frame), phase)

    if args.crash_recovery:
        cleanup = args.artifacts_dir is None
        artifacts_dir = (
            Path(tempfile.mkdtemp(prefix="chaos-recovery-"))
            if cleanup
            else args.artifacts_dir
        )
        artifacts_dir.mkdir(parents=True, exist_ok=True)
        summary, failures = run_crash_recovery(artifacts_dir)
    else:
        summary, failures = run_chaos(seed=args.seed)

    for name, stats in summary.items():
        print(f"{name}: {stats}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print("CHAOS FAILED", file=sys.stderr)
        return 1
    if args.crash_recovery and cleanup:
        shutil.rmtree(artifacts_dir, ignore_errors=True)
    print("CHAOS OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
