#!/usr/bin/env python
"""Guard against kernel, matching-core, and city-day perf regressions.

Compares the freshly generated benchmark artifacts at the repo root
against their committed baselines and fails when any guarded fast-path
row got more than ``--tolerance`` slower (default 25%):

* ``BENCH_kernels.json`` (written by ``pytest
  benchmarks/test_micro_algorithms.py -k KernelSpeedups``) vs
  ``benchmarks/BENCH_kernels_baseline.json`` — the vectorized
  preference/table construction kernels;
* ``BENCH_matching.json`` (written by ``pytest
  benchmarks/test_matching_core.py``) vs
  ``benchmarks/BENCH_matching_baseline.json`` — the array
  deferred-acceptance engine and the array frame totals;
* ``BENCH_cityday.json`` (written by ``pytest
  benchmarks/test_cityday.py``) vs
  ``benchmarks/BENCH_cityday_baseline.json`` — the paper-scale
  city-day, cold vs warm-start end-to-end.

Absolute wall-clock comparisons across different machines are noisy, so
CI should regenerate both sides on the same host when possible; the 25%
tolerance absorbs same-host run-to-run jitter, and each artifact embeds
an ``environment`` block so a cross-machine comparison is at least
visible.  Refresh a baseline by copying the new artifact over it after
an intentional change.

Usage::

    scripts/run_benchmarks.sh            # regenerate all + check
    python scripts/check_bench_regression.py [--suite kernels|matching|cityday]
    python scripts/check_bench_regression.py --list   # deltas, no verdicts
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Suite:
    """One benchmark artifact/baseline pair and its guarded rows."""

    name: str
    current: Path
    baseline: Path
    guarded_prefixes: tuple[str, ...]
    #: The ``bench-<suite>/<N>`` schema version this checker understands.
    #: Artifacts carry it so a checker from one repo revision refuses,
    #: with a clear message, to compare artifacts from another.
    schema: str


SUITES = (
    Suite(
        name="kernels",
        current=REPO_ROOT / "BENCH_kernels.json",
        baseline=REPO_ROOT / "benchmarks" / "BENCH_kernels_baseline.json",
        schema="bench-kernels/2",
        # The table-construction hot path plus the raw batched kernels
        # it is built on.
        guarded_prefixes=(
            "preference_table_vectorized_",
            "pairwise_euclidean",
            "cost_matrix_batched",
        ),
    ),
    Suite(
        name="matching",
        current=REPO_ROOT / "BENCH_matching.json",
        baseline=REPO_ROOT / "benchmarks" / "BENCH_matching_baseline.json",
        schema="bench-matching/1",
        # The array fast path only: the dict rows are reference points,
        # not guarded surfaces.  The e2e city-day rows aggregate whole
        # simulations and are too noisy at this tolerance; the JSON
        # still records them for eyeballing.
        guarded_prefixes=(
            "da_array_",
            "frame_total_array_",
        ),
    ),
    Suite(
        name="cityday",
        current=REPO_ROOT / "BENCH_cityday.json",
        baseline=REPO_ROOT / "benchmarks" / "BENCH_cityday_baseline.json",
        schema="bench-cityday/1",
        # Whole paper-scale simulations (schema bench-cityday/1): noisy,
        # but a regression here is exactly what the warm-start layer
        # exists to prevent, so the rows are guarded at the shared
        # tolerance.
        guarded_prefixes=("cityday_",),
    ),
)


def load(path: Path, expected_schema: str) -> dict:
    if not path.exists():
        sys.exit(f"error: {path} not found; run the benchmarks first (scripts/run_benchmarks.sh)")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON ({exc})")
    if not isinstance(payload, dict) or "kernels" not in payload:
        schema = payload.get("schema", "<missing>") if isinstance(payload, dict) else "<not an object>"
        sys.exit(
            f"error: {path} has no 'kernels' table (schema {schema}); "
            "was it written by a benchmark run of this repo?"
        )
    schema = payload.get("schema", "<missing>")
    if schema != expected_schema:
        sys.exit(
            f"error: {path} declares schema {schema!r} but this checker "
            f"understands {expected_schema!r}; regenerate the artifact with "
            "the current benchmarks (scripts/run_benchmarks.sh) or check out "
            "the repo revision that wrote it"
        )
    kernels = payload["kernels"]
    for name, row in kernels.items():
        if not isinstance(row, dict) or "ms" not in row:
            sys.exit(f"error: {path}: row {name!r} has no 'ms' field; artifact corrupt?")
    return kernels


def check_suite(suite: Suite, tolerance: float) -> list[str]:
    current = load(suite.current, suite.schema)
    baseline = load(suite.baseline, suite.schema)

    failures = []
    checked = 0
    for name, base in sorted(baseline.items()):
        if not name.startswith(suite.guarded_prefixes):
            continue
        now = current.get(name)
        if now is None:
            failures.append(f"{name}: present in baseline but missing from current run")
            continue
        checked += 1
        limit = base["ms"] * (1.0 + tolerance)
        verdict = "ok" if now["ms"] <= limit else "REGRESSED"
        print(
            f"[{suite.name}] {name}: {now['ms']:.2f} ms vs baseline {base['ms']:.2f} ms "
            f"(limit {limit:.2f} ms) {verdict}"
        )
        if now["ms"] > limit:
            failures.append(
                f"{name}: {now['ms']:.2f} ms exceeds baseline {base['ms']:.2f} ms "
                f"by more than {tolerance:.0%}"
            )

    # A guarded row in the current run with no baseline entry means the
    # baseline predates the benchmark: an unguarded surface masquerading
    # as a guarded one.  Fail loudly instead of silently skipping it.
    for name in sorted(current):
        if name.startswith(suite.guarded_prefixes) and name not in baseline:
            failures.append(
                f"{name}: measured by the current run but absent from "
                f"{suite.baseline.name}; refresh the baseline to cover it"
            )

    if not checked:
        failures.append(f"no guarded rows found in {suite.baseline}; baseline file corrupt?")
    else:
        print(f"[{suite.name}] {checked} guarded rows checked")
    return failures


def list_suite(suite: Suite) -> None:
    """Print per-row current/baseline deltas without pass/fail verdicts."""
    if not suite.current.exists() and not suite.baseline.exists():
        print(f"[{suite.name}] no artifact and no baseline; skipped")
        return
    current = load(suite.current, suite.schema) if suite.current.exists() else {}
    baseline = load(suite.baseline, suite.schema) if suite.baseline.exists() else {}
    names = sorted(set(current) | set(baseline))
    for name in names:
        guarded = "*" if name.startswith(suite.guarded_prefixes) else " "
        now = current.get(name)
        base = baseline.get(name)
        if now is not None and base is not None and base["ms"] > 0:
            delta = (now["ms"] - base["ms"]) / base["ms"]
            print(
                f"[{suite.name}]{guarded} {name}: {now['ms']:.2f} ms "
                f"(baseline {base['ms']:.2f} ms, {delta:+.1%})"
            )
        elif now is not None:
            print(f"[{suite.name}]{guarded} {name}: {now['ms']:.2f} ms (no baseline)")
        else:
            print(f"[{suite.name}]{guarded} {name}: no current run (baseline {base['ms']:.2f} ms)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=[s.name for s in SUITES],
        default=None,
        help="check only one suite (default: all)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print current-vs-baseline deltas for every row (guarded rows "
        "marked with *) and exit 0 without any regression verdict",
    )
    args = parser.parse_args(argv)

    suites = [s for s in SUITES if args.suite is None or s.name == args.suite]
    if args.list:
        for suite in suites:
            list_suite(suite)
        return 0
    failures: list[str] = []
    for suite in suites:
        failures.extend(check_suite(suite, args.tolerance))

    if failures:
        print()
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(f"\nall guarded rows within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
