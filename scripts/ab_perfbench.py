#!/usr/bin/env python
"""A/B the repository benchmark: a base commit against the working tree.

Checks the base commit (default ``HEAD``) out into a temporary
``git worktree``, then runs ``perfbench/run.py`` in pairs, one run in
the worktree and one in the working tree per pair, alternating which
side starts.  The worktree is removed afterwards.  For each workload it
prints every end-to-end metric: both sides' medians and interquartile
ranges, the change of the medians in percent (positive is better), and
in how many pairs the working tree's run beat the base's, and two
verdicts: whether the medians differ by more than the base's
interquartile range (``gap>IQR``), and whether the change stays within
the metric's bound in ``BENCHMARK.json`` (``in bound``; the file is only
read).  It also says whether each quality metric read the same on every
run of both sides, bit for bit.

Usage (from the repository root)::

    python scripts/ab_perfbench.py --workload cityday-stream --pairs 10
    python scripts/ab_perfbench.py --size smoke --pairs 1      # every workload, seconds
    python scripts/ab_perfbench.py --base-tree ../parent       # an existing checkout as base

Exits 1 when a run fails or reports an incorrect output, 0 otherwise:
the verdict on the numbers is the reader's.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, QUALITY_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Ceiling for one ``perfbench/run.py`` invocation (it stops its own
#: workers at 170 s).
RUN_TIMEOUT_S = 600.0


def run_once(tree: Path, workload: str, args: argparse.Namespace) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``: its result line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--size", args.size,
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{tree}: perfbench exited {done.returncode} on {workload}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def bounds() -> dict[str, float]:
    """Each end-to-end metric's bound in ``BENCHMARK.json``: the largest
    relative worsening the benchmark accepts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: float(metric["bound"]) for metric in spec["end_to_end"]}


def within_bound(b_med: float, c_med: float, sign: float, bound: float) -> bool:
    """Whether the change's median is no worse than the base's by more
    than ``bound`` of it (any worsening of a zero base is out of bound)."""
    worsening = -sign * (c_med - b_med)
    if b_med == 0.0:
        return worsening <= 0.0
    return worsening <= bound * abs(b_med)


def report(workload: str, pairs: list[tuple[dict, dict]]) -> bool:
    """Print one workload's comparison; returns whether every run was correct."""
    ok = all(run["correct"] for pair in pairs for run in pair)
    limits = bounds()
    print(f"\n== {workload}: {len(pairs)} pair(s), base vs change"
          f"{'' if ok else '  (INCORRECT RUNS: see failed counts)'}")
    print(f"{'metric':<36}{'base median [IQR]':>26}{'change median [IQR]':>26}"
          f"{'change':>10}{'won':>7}{'gap>IQR':>9}{'in bound':>10}")
    for name, unit, better in END_TO_END:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        b_low, b_med, b_high = quartiles(base)
        c_low, c_med, c_high = quartiles(new)
        sign = 1.0 if better == "higher" else -1.0
        change = sign * (c_med - b_med) / b_med * 100.0 if b_med else 0.0
        won = sum(1 for b, c in zip(base, new) if sign * (c - b) > 0)
        beyond_iqr = abs(c_med - b_med) > b_high - b_low
        in_bound = within_bound(b_med, c_med, sign, limits[name])
        print(f"{name + ' (' + unit + ')':<36}"
              f"{f'{b_med:.4g} [{b_high - b_low:.3g}]':>26}"
              f"{f'{c_med:.4g} [{c_high - c_low:.3g}]':>26}"
              f"{change:>+9.1f}%{f'{won}/{len(pairs)}':>7}"
              f"{'yes' if beyond_iqr else 'no':>9}{'yes' if in_bound else 'NO':>10}")
    for name in QUALITY_METRICS:
        values = {run["metrics"][name]["value"] for pair in pairs for run in pair}
        verdict = "bit-identical" if len(values) == 1 else f"DIFFERS: {sorted(values)}"
        print(f"quality {name}: {verdict}")
    failed = [(b["failed"], c["failed"]) for b, c in pairs]
    print(f"failed operations per pair (base, change): {failed}")
    return ok


def compare(base_tree: Path, args: argparse.Namespace) -> int:
    """Run every requested workload's pairs; returns the exit status."""
    status = 0
    for workload in args.workload or WORKLOADS:
        pairs = []
        for k in range(args.pairs):
            # Alternate which side starts, so host drift over the run
            # does not favour one side.
            order = [("base", base_tree), ("change", ROOT)]
            if k % 2:
                order.reverse()
            runs = {side: run_once(tree, workload, args) for side, tree in order}
            pairs.append((runs["base"], runs["change"]))
            rps = [runs[side]["metrics"]["requests_per_s"]["value"] for side in ("base", "change")]
            print(f"{workload} pair {k + 1}: requests_per_s base {rps[0]:.1f} change {rps[1]:.1f}",
                  flush=True)
        if not report(workload, pairs):
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--base-tree", type=Path,
                        help="an existing checkout to use as the base instead of --base")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default every workload)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.base_tree is not None:
        return compare(args.base_tree.resolve(), args)
    scratch = Path(tempfile.mkdtemp(prefix="ab-perfbench-"))
    worktree = scratch / "base"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(worktree), args.base],
        cwd=ROOT, check=True, capture_output=True,
    )
    try:
        return compare(worktree, args)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
