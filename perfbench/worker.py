"""One benchmark worker: a fresh process that sets up and runs one workload.

Started by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src/``; prints one JSON object as its last stdout line.

Modes:

* ``measure`` — time the set-up (``import repro`` + trace generation +
  engine construction), then ``--reps`` times the engine's ``run()``
  (a freshly constructed engine each time, built outside the timed
  window), checking the outputs of each;
* ``reference`` — time the same set-up, then (untimed) run the
  workload's independent reference path at full size where it is
  affordable, and the smoke-size check: the measured engine against the
  reference path on a two-hour slice with another seed;
* ``traced`` — as ``measure``, with every layer boundary wrapped by
  :mod:`perfbench.tracer`; reports per-layer metrics;
* ``setup`` — the timed set-up alone (one more ``setup_s`` sample).

A measured worker times the host-speed probe of
:mod:`perfbench.calibrate` right after set-up and after every
repetition.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, checks, workloads  # noqa: E402


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1]
                inside = target == point or target.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, fstype = point, fields[2]
    except OSError:
        pass
    return fstype


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "reference", "traced", "setup"),
                        default="measure")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--reps", type=int, default=1,
                        help="measure mode: timed runs of the workload")
    parser.add_argument("--drop-one-assignment", action="store_true",
                        help="corrupt the measured dispatcher (harness self-test)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    workloads.import_repro()
    imported = time.perf_counter()
    days = workloads.build_days(args.workload, args.seed, args.size)
    built = time.perf_counter()
    engines = [workloads.build_engine(args.workload, d.sim_config, args.work_dir) for d in days]
    ready = time.perf_counter()
    out: dict = {
        "mode": args.mode,
        "setup_s": ready - start,
        "import_s": imported - start,
        "build_workload_s": built - imported,
        "requests": sum(len(d.requests) for d in days),
        "failures": [],
    }
    if args.mode == "measure":
        # The host's speed before the first repetition; _measure adds
        # one after every repetition (see perfbench/calibrate.py).
        out["probe_s"] = [calibrate.probe_s()]
    try:
        if args.mode == "reference":
            if args.workload in workloads.FULL_SIZE_REFERENCE:
                references = [workloads.run_reference(args.workload, d) for d in days]
                out["digest"] = checks.result_digest(references)
                for day, reference in zip(days, references):
                    out["failures"] += checks.structural_failures(reference, len(day.requests))
            out["failures"] += _smoke_check(args)
        elif args.mode != "setup":
            out.update(_measure(args, days, engines, out.get("probe_s")))
    finally:
        for engine in engines:
            engine.close()
    if args.mode == "measure":
        from repro.experiments import environment_metadata

        env = dict(environment_metadata())
        env["work_dir_filesystem"] = filesystem_of(args.work_dir)
        out["environment"] = env
    print(json.dumps(out))
    return 0


def _run_checked(days: list, engines: list) -> tuple[list, float, list[str]]:
    """Run every day through its engine; returns the results, the summed
    ``run()`` wall time and the output-check failures."""
    results = []
    run_s = 0.0
    for day, engine in zip(days, engines):
        began = time.perf_counter()
        results.append(engine.run(day))
        run_s += time.perf_counter() - began
    failures = []
    for day, engine, result in zip(days, engines, results):
        failures += checks.structural_failures(result, len(day.requests))
        if engine.durable_dir is not None:
            failures += workloads.durable_checks(engine, result)
    return results, run_s, failures


def _smoke_check(args: argparse.Namespace) -> list[str]:
    """Measured engine ≡ reference path on a small slice (stream ≡ the
    cold batch solve, so warm ≡ cold too; durable ≡ plain); STD-P, which
    has no second path, is held to the structural checks."""
    seed = args.seed + workloads.SMOKE_SEED_OFFSET
    days = workloads.build_days(args.workload, seed, "smoke")
    engines = [workloads.build_engine(args.workload, d.sim_config, args.work_dir) for d in days]
    if args.drop_one_assignment:
        for engine in engines:
            workloads.drop_one_assignment(engine)
    try:
        results, _, failures = _run_checked(days, engines)
    finally:
        for engine in engines:
            engine.close()
    references = [workloads.run_reference(args.workload, d, cold=True) for d in days]
    if None not in references and checks.result_digest(references) != checks.result_digest(results):
        failures.append("outputs differ from the reference path")
    return [f"smoke check (seed {seed}): {f}" for f in failures]


def _measure(
    args: argparse.Namespace, days: list, engines: list, probes: list[float] | None
) -> dict:
    """Run the workload ``--reps`` times (once when traced), timed, and
    check the outputs of every repetition; ``probes`` (untraced runs)
    gains a host-speed probe after each repetition."""
    tracer = None
    if args.mode == "traced":
        from perfbench.tracer import Tracer, install

        tracer = Tracer()
        install(tracer, [engine.oracle for engine in engines])
    reps = 1 if tracer is not None else args.reps
    run_s: list[float] = []
    frame_ms: list[list[float]] = []
    digests: list[str] = []
    failures: list[str] = []
    frames_bad = 0
    for rep in range(reps):
        if rep:
            engines = [
                workloads.build_engine(args.workload, d.sim_config, args.work_dir) for d in days
            ]
        try:
            if args.drop_one_assignment:
                for engine in engines:
                    workloads.drop_one_assignment(engine)
            results, seconds, rep_failures = _run_checked(days, engines)
            if tracer is not None:
                journal_bytes = sum(
                    (e.durable_dir / "journal.jsonl").stat().st_size
                    for e in engines
                    if e.durable_dir is not None and (e.durable_dir / "journal.jsonl").exists()
                )
        finally:
            if rep:
                for engine in engines:
                    engine.close()
        if probes is not None:
            probes.append(calibrate.probe_s())
        run_s.append(seconds)
        failures += rep_failures
        series, active = checks.frame_series(results)
        frame_ms.append(series)
        digests.append(checks.result_digest(results))
        frames_bad += checks.frames_not_ok(results)
        if not rep:
            # Memory of set-up plus one run, whatever the repetition count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            quality = checks.quality(results)
        if tracer is None:
            del results
    if len(set(digests)) != 1:
        failures.append("repetitions in one worker disagree on the outputs")
    out = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digests[0],
        "frame_ms": frame_ms,
        "active": active,
        "frames_not_ok": frames_bad,
        "quality": quality,
        "failures": failures,
    }
    if tracer is not None:
        tracer.restore()
        from perfbench.tracer import per_layer_metrics

        out["layers"] = per_layer_metrics(tracer, results, quality, float(journal_bytes))
        out["spans"] = len(tracer.spans)
        trace_dir = args.work_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return out


if __name__ == "__main__":
    sys.exit(main())
