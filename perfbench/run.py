"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload durable-day --seed 7 --seconds 5 --trace 0

Work happens in fresh single-threaded worker processes
(``perfbench/worker.py``), one worker at a time.  An untraced run
(``--trace 0``) starts the workload's ``MEASURED_REPS`` measured
workers and repetitions (more workers while the measured time is below
``--seconds``) with the reference worker after the first; every
worker times one set-up.  It reports the end-to-end metrics.  A traced
run (``--trace 1``) starts one untraced and one traced worker and
reports the per-layer metrics.  Every worker's outputs are checked
before any number counts (see ``perfbench/README.md``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
details (sample counts, environment, per-worker figures, failures).
Exits 2 without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.calibrate import REFERENCE_PROBE_S  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, QUALITY_METRICS, UNITS  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MEASURED_REPS,
    WORKLOADS,
    workload_shape,
)

#: Least set-up samples per run (one per worker, set-up-only workers
#: make up any shortfall); ``setup_s`` is their median.
MIN_SETUPS = 3
#: Hard ceiling for one invocation: a worker still running then is killed
#: and the run reported as failed.
RUN_LIMIT_S = 170.0
#: Scratch space inside the checkout (durable-day journals, span dumps).
WORK_DIR = ROOT / ".perfbench"


class WorkerFailed(RuntimeError):
    """A worker exited non-zero, timed out or printed no result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Single-threaded workers: the benchmark measures single-core work
    # and runs one worker at a time.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Every worker imports ``repro`` from source, whether or not an
    # earlier process left bytecode behind, so ``setup_s`` means the same
    # on the first run in a checkout as on the hundredth.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: argparse.Namespace, mode: str, deadline: float, *extra: str) -> dict:
    """Start one worker and wait for its JSON result."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--size", args.size, "--work-dir", str(WORK_DIR), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"{mode} worker: no time left")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def frame_percentiles(frame_ms: list[float], active: list[bool]) -> tuple[float, float, int]:
    """Nearest-rank p50 and p99 over the active frames, and their count."""
    samples = sorted(ms for ms, is_active in zip(frame_ms, active) if is_active)
    if not samples:
        return math.nan, math.nan, 0
    return nearest_rank(samples, 0.50), nearest_rank(samples, 0.99), len(samples)


def output_failures(
    args: argparse.Namespace, measured: list[dict], reference: dict | None
) -> list[str]:
    """Cross-run checks: every repetition produced the same outputs and
    frame series, equal to the reference path's where one exists and to
    those of every earlier run of the same workload, seed and size in
    this checkout (its digest ledger)."""
    digest = measured[0]["digest"]
    if any(w["digest"] != digest or w["active"] != measured[0]["active"] for w in measured):
        return ["repetitions disagree on the outputs"]
    if reference is not None and "digest" in reference and reference["digest"] != digest:
        return ["outputs differ from the reference path"]
    if args.drop_one_assignment:
        return []
    ledger_path = WORK_DIR / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{args.workload}:{args.seed}:{workload_shape(args.workload, args.size)}"
    if ledger.setdefault(key, digest) != digest:
        return [f"outputs differ from an earlier run of seed {args.seed} in this checkout"]
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return []


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


FAILED_RUN = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def untraced(args: argparse.Namespace, deadline: float, details: dict) -> dict:
    corrupt = ["--drop-one-assignment"] if args.drop_one_assignment else []
    failures: list[str] = []
    measured: list[dict] = []
    reference = None
    setups: list[dict] = []  # every worker, each of which timed one set-up
    workers, reps_each = MEASURED_REPS[args.workload]
    rep_args = ["--reps", str(reps_each)]
    try:
        # Measured workers, with the reference worker between the first
        # and the second so that the repetitions of a frame lie seconds
        # apart; more measured workers while the measured time is below
        # --seconds.
        while len(measured) < workers or (
            sum(sum(w["run_s"]) for w in measured) < args.seconds
        ):
            measured.append(run_worker(args, "measure", deadline, *rep_args, *corrupt))
            setups.append(measured[-1])
            if reference is None:
                reference = run_worker(args, "reference", deadline, *corrupt)
                setups.append(reference)
        while len(setups) < MIN_SETUPS:
            setups.append(run_worker(args, "setup", deadline))
    except WorkerFailed as exc:
        failures.append(str(exc))
    details["failures"] = failures
    if not measured:
        return FAILED_RUN
    first = measured[0]
    failures += [f for w in measured for f in w["failures"]]
    if reference is not None:
        failures += [f"reference: {f}" for f in reference["failures"]]
    failures += output_failures(args, measured, reference)

    # Times are scaled to the reference host speed (perfbench/calibrate.py):
    # a repetition by the mean of the probes just before and just after
    # it, set-ups by the median of all the run's probes (a set-up is too
    # short, and too much file reading, to follow the probe beside it).
    scale = [
        2.0 * REFERENCE_PROBE_S / (w["probe_s"][i] + w["probe_s"][i + 1])
        for w in measured
        for i in range(len(w["run_s"]))
    ]
    raw_series = [rep for w in measured for rep in w["frame_ms"]]
    series = [[ms * k for ms in rep] for rep, k in zip(raw_series, scale)]
    # Each frame's time is the median of its scaled repetitions, so one
    # repetition hit by a short slow spell, or scaled by a probe that
    # caught one, does not move it.
    frame_ms = [statistics.median(frame) for frame in zip(*series)]
    p50, p99, n_active = frame_percentiles(frame_ms, first["active"])
    reps = len(series)
    attempted = max(n_active * reps, 1)
    failed = attempted if failures else sum(w["frames_not_ok"] for w in measured)
    quality = first["quality"]
    details["environment"] = first["environment"]
    details["samples"] = {
        "repetitions": reps,
        "setups": len(setups),
        "active_frames": n_active,
        "frames_beyond_p99": n_active - math.ceil(0.99 * n_active),
        "requests": first["requests"],
    }
    details["measured"] = [
        {key: w[key] for key in ("setup_s", "import_s", "build_workload_s", "run_s")}
        for w in measured
    ]
    raw_run_s = [seconds for w in measured for seconds in w["run_s"]]
    run_s = [seconds * k for seconds, k in zip(raw_run_s, scale)]
    raw_setup_s = statistics.median(w["setup_s"] for w in setups)
    run_probe_s = statistics.median(p for w in measured for p in w["probe_s"])
    raw_p50, raw_p99, _ = frame_percentiles(
        [statistics.median(frame) for frame in zip(*raw_series)], first["active"]
    )
    details["as_measured"] = {
        "requests_per_s": statistics.median(first["requests"] / s for s in raw_run_s),
        "frame_p50_ms": raw_p50,
        "frame_p99_ms": raw_p99,
        "setup_s": raw_setup_s,
        "probe_s": [w["probe_s"] for w in measured],
    }
    details["quality"] = quality
    values = {
        "requests_per_s": statistics.median(first["requests"] / seconds for seconds in run_s),
        "frame_p50_ms": p50,
        "frame_p99_ms": p99,
        "setup_s": raw_setup_s * REFERENCE_PROBE_S / run_probe_s,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in measured),
        "frames_ok_frac": (attempted - failed) / attempted,
        **{name: quality[name] for name in QUALITY_METRICS},
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(name, values[name]) for name, _, _ in END_TO_END},
    }


def traced(args: argparse.Namespace, deadline: float, details: dict) -> dict:
    try:
        plain = run_worker(args, "measure", deadline)
        layered = run_worker(args, "traced", deadline)
    except WorkerFailed as exc:
        details["failures"] = [str(exc)]
        return FAILED_RUN
    failures = plain["failures"] + layered["failures"]
    if plain["digest"] != layered["digest"]:
        failures.append("tracing changed the outputs")
    layers = dict(layered["layers"])
    layers["repro.import_s"] = layered["import_s"]
    layers["trace.build_workload_s"] = layered["build_workload_s"]
    layers["trace.overhead_frac"] = layered["run_s"][0] / plain["run_s"][0] - 1.0
    details["environment"] = plain["environment"]
    details["failures"] = failures
    details["samples"] = {"spans_recorded": layered["spans"]}
    attempted = max(sum(layered["active"]), 1)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else layered["frames_not_ok"],
        "metrics": {name: metric(name, layers[name]) for name, _, _ in PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="least measured time; more workers run if the fixed ones are faster")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a two-hour slice, for the seconds-long self-check")
    parser.add_argument("--drop-one-assignment", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    WORK_DIR.mkdir(exist_ok=True)
    details: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                     "trace": args.trace}
    try:
        if args.trace:
            result = traced(args, deadline, details)
        else:
            result = untraced(args, deadline, details)
    finally:
        for stale in WORK_DIR.glob("durable-*"):
            shutil.rmtree(stale, ignore_errors=True)
    details["wall_s"] = time.monotonic() - started
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
