#!/usr/bin/env python3
"""Function census: which ``src/`` functions does a run execute?

Runs the repository's entry points in this one process under a stdlib
``sys.setprofile`` hook that records every code object entered, then
lists each ``src/repro`` function no entry point called, with its line
count (decorators to last line).  A function nested in an uncalled
function is counted with its parent, not on its own line.  Stubs whose
body is only a docstring, ``...``, ``pass`` or ``raise
NotImplementedError`` (protocols, abstract methods) never run by design
and are not counted.

The entry points (:data:`ENTRY_POINTS`) are what a run of this project
is: every example, the three perfbench workloads at smoke size
(measured engine and reference path), ``repro-taxi fig4`` … ``fig9`` at
the CLI's default scale, the eight ablation benches, one durable
``scripts/run_fullmonth.py`` day and ``repro-lint src/``.  Code that
only a subprocess, another CI job or an operator runs is invisible
here; each such function must match an exemption in
:data:`EXEMPTIONS`, which names why it stays.  The script exits 1 when
an uncalled function matches no exemption, or an exemption matches no
uncalled function (it is stale), and 0 otherwise.

Usage (from the repository root)::

    python scripts/run_census.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import fnmatch
import io
import os
import runpy
import sys
import tempfile
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from types import CodeType, FrameType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for entry in (str(SRC), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Why an uncalled function stays in ``src/`` -> the ``module:qualname``
#: globs it covers.  Every uncalled function must match one glob, and
#: every glob must match an uncalled function.
EXEMPTIONS: dict[str, tuple[str, ...]] = {
    "resume path: a run restarted from its journal and newest snapshot; "
    "scripts/run_chaos.py --crash-recovery runs it in subprocesses": (
        "repro.resilience.checkpoint:DurabilityManager.prepare_resume",
        "repro.resilience.checkpoint:resume_simulation",
        "repro.resilience.journal:history_cursor",
        "repro.resilience.journal:FrameDigest.replay_key",
        "repro.resilience.journal:JournalContents.*",
        "repro.resilience.journal:JournalWriter.write_resume",
        "repro.simulation.core:RunCore.restore_state",
        "repro.simulation.engine:Simulator._restore_state",
        "repro.dispatch.base:Dispatcher.restore_state",
        "repro.simulation.repositioning:*.restore_state",
    ),
    "snapshot state of a repositioning policy: every durable run here parks "
    "idle taxis": (
        "repro.simulation.repositioning:*.state_payload",
    ),
    "fault injector: armed by a FaultPlan (scripts/run_chaos.py and the "
    "fault tests); a clean run draws no fault": (
        "repro.resilience.faults:*",
        "repro.resilience.ladder:ResiliencePolicy.with_injector",
        "repro.experiments.runners:_cell_key",
    ),
    "SARIF output: repro-lint --format sarif, for code-scanning upload": (
        "repro.devtools.sarif:*",
    ),
    "lint internals a clean src/ never reaches: finding rendering, JSON "
    "output, --changed-only, --list-rules, single-file entry points and "
    "rule branches that fire only on a violation": (
        "repro.devtools.cli:_narrow_to",
        "repro.devtools.cli:_print_rules",
        "repro.devtools.engine:lint_source",
        "repro.devtools.engine:lint_file",
        "repro.devtools.findings:*",
        "repro.devtools.project:FunctionInfo.is_method",
        "repro.devtools.project:ProjectContext.budget_raises",
        "repro.devtools.project:ProjectContext.class_for_function",
        "repro.devtools.project:ProjectContext.call_site_omits",
        "repro.devtools.rules.rep004_budget_errors:_reraises",
    ),
    "CSV loaders: the real-trace path, fed by TLC and Boston dumps that no "
    "synthetic run reads": (
        "repro.trace.loader:*",
        "repro.trace.records:EquirectangularProjection.*",
    ),
    "failure paths: a clean run raises no typed error, needs no warm "
    "fallback and heals no audited frame": (
        "repro.core.errors:*.__init__",
        "repro.dispatch.nonsharing.nstd:_reason_key",
        "repro.dispatch.*:*.invalidate_warm_state",
    ),
    "debugging aid: no run formats these objects": (
        "repro.*:*.__repr__",
    ),
    "third-party oracle adapter: the scalar fallback for oracles without "
    "batch kernels": (
        "repro.geometry.batch:_as_points",
        "repro.geometry.batch:_scalar_pairwise",
    ),
    "alternative metrics of the oracle API: every entry point measures "
    "Euclidean or road-network distance": (
        "repro.geometry.distance:ManhattanDistance.*",
        "repro.geometry.distance:HaversineDistance.*",
        "repro.geometry.distance:ScaledDistance.*",
        "repro.geometry.point:Point.manhattan_distance_to",
    ),
    "anytime budgets: enumeration and packing budgets that the engine, the "
    "auditor and REP004 depend on": (
        "repro.resilience.budget:FrameBudget.*",
        "repro.resilience.budget:WorkBudget.*",
        "repro.packing.feasibility:_Charge._trip",
    ),
    "zone planner and sharding: they go with the streaming engine's second "
    "clock (ROADMAP item 4)": (
        "repro.matching.sharding:*",
        "repro.streaming.zones:*",
    ),
    "ILP's faster heuristic above exact_limit: only paper-scale frames reach "
    "it (ROADMAP item 16)": (
        "repro.dispatch.sharing.ilp:ILPDispatcher._solve_greedy",
    ),
    "the paper's NSTD-T and STD-T factories: runs build them by name "
    "through make_dispatcher": (
        "repro.dispatch.nonsharing.nstd:nstd_t",
        "repro.dispatch.sharing.std:std_t",
    ),
    "warm NSTD outside an engine: a standalone warm dispatch (and the "
    "solver's tests) builds the frame's operands from the objects; every "
    "engine frame gathers them from its run's columns": (
        "repro.matching.warm_frame:frame_operands",
    ),
    "public accessors: small methods of the value types that tests, test "
    "oracles or library callers read and no entry point does": (
        "repro.analysis.aggregate:summarize_by_label",
        "repro.analysis.cdf:EmpiricalCDF.sample_points",
        "repro.analysis.cdf:EmpiricalCDF.mean",
        "repro.analysis.cdf:EmpiricalCDF.median",
        "repro.analysis.stats:MetricSummary.overlaps",
        "repro.core.types:Taxi.can_carry",
        "repro.core.types:RideGroup.total_trip_distance",
        "repro.core.types:RideGroup.detour_km",
        "repro.core.types:Assignment.pickup_stop_of",
        "repro.core.types:DispatchSchedule.dispatched_taxi_ids",
        "repro.dispatch.base:PackedSingleSchedule.__getattr__",
        "repro.dispatch.sharing.plan:TaxiPlan.current_length",
        "repro.geometry.point:Point.midpoint",
        "repro.geometry.point:Point.as_tuple",
        "repro.geometry.point:Point.__iter__",
        "repro.geometry.spatial_index:GridSpatialIndex.__len__",
        "repro.geometry.spatial_index:GridSpatialIndex.__contains__",
        "repro.geometry.spatial_index:GridSpatialIndex.__iter__",
        "repro.geometry.spatial_index:GridSpatialIndex.cell_size",
        "repro.geometry.spatial_index:GridSpatialIndex.point_of",
        "repro.geometry.spatial_index:GridSpatialIndex.clear",
        "repro.matching.bipartite:matching_total_cost",
        "repro.matching.hopcroft_karp:maximum_matching_size",
        "repro.matching.preferences:passenger_score",
        "repro.matching.preferences:taxi_score",
        "repro.matching.preferences:PreferenceTable.proposer_ids",
        "repro.matching.preferences:PreferenceTable.reviewer_ids",
        "repro.matching.preferences:PreferenceTable.mutually_acceptable",
        "repro.matching.preferences:PreferenceTable.proposer_prefers",
        "repro.matching.result:Matching.matched_proposers",
        "repro.matching.result:Matching.matched_reviewers",
        "repro.matching.result:Matching.unmatched_proposers",
        "repro.matching.result:Matching.unmatched_reviewers",
        "repro.matching.result:Matching.with_pair",
        "repro.matching.result:Matching.without_proposer",
        "repro.matching.result:Matching.__len__",
        "repro.matching.result:Matching.__iter__",
        "repro.matching.verification:is_stable",
        "repro.matching.verification:assert_stable",
        "repro.matching.warm_frame:IncrementalBuildStats.rebuild_fraction",
        "repro.network.graph:RoadNetwork.node_count",
        "repro.network.graph:RoadNetwork.edge_count",
        "repro.network.graph:RoadNetwork.node_point",
        "repro.network.graph:RoadNetwork.nodes",
        "repro.network.graph:RoadNetwork.neighbors",
        "repro.network.graph:RoadNetwork.cache_stats",
        "repro.network.shortest_path:SingleSourceCache.clear",
        "repro.resilience.journal:JournalWriter.__enter__",
        "repro.resilience.journal:JournalWriter.__exit__",
        "repro.resilience.report:FrameResilienceRecord.degraded",
        "repro.resilience.report:ResilienceReport.*",
        "repro.routing.shared_route:SharedRoute.start",
        "repro.routing.shared_route:SharedRoute.end",
        "repro.routing.shared_route:count_feasible_sequences",
        "repro.simulation.core:SimulationResult.unserved",
        "repro.simulation.events:RequestOutcome.wait_time_s",
        "repro.simulation.repositioning:NoRepositioning.target_for",
        "repro.streaming.events:EventQueue.__len__",
        "repro.streaming.events:EventQueue.clock_s",
        "repro.streaming.events:EventQueue.peek_time",
        "repro.trace.synthetic:generate_day",
        "repro.trace.synthetic:generate_fleet",
    ),
    "tie-break key of the shared-route search: called only when two "
    "routes have equal length": (
        "repro.routing.shared_route:feasible_shared_route.<locals>.key",
    ),
}


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``."""

    module: str
    qualname: str
    path: str
    first_line: int
    lines: int
    parent: Function | None

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def inventory(src: Path = SRC) -> dict[tuple[str, int], Function]:
    """Every non-stub function under ``src``, keyed like its code object:
    ``(absolute file path, co_firstlineno)``."""
    functions: dict[tuple[str, int], Function] = {}
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str, parent: Function | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    assert child.end_lineno is not None
                    function = Function(
                        module,
                        prefix + child.name,
                        str(path),
                        first,
                        child.end_lineno - first + 1,
                        parent,
                    )
                    if not _is_stub(child):
                        functions[(str(path), first)] = function
                    visit(child, f"{prefix}{child.name}.<locals>.", function)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return functions


@contextlib.contextmanager
def recording(codes: set[CodeType]) -> Iterator[None]:
    """Add every code object entered while active to ``codes``."""
    add = codes.add

    def hook(frame: FrameType, event: str, arg: object) -> None:
        add(frame.f_code)

    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)


# -- entry points -------------------------------------------------------


def run_examples(work: Path) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def run_perfbench_smoke(work: Path) -> None:
    from perfbench import workloads

    for name in workloads.WORKLOADS:
        days = workloads.build_days(name, 7 + workloads.SMOKE_SEED_OFFSET, "smoke")
        for day in days:
            engine = workloads.build_engine(name, day.sim_config, work / "perfbench")
            try:
                result = engine.run(day)
                if engine.durable_dir is not None:
                    failures = workloads.durable_checks(engine, result)
                    if failures:
                        raise AssertionError(failures)
            finally:
                engine.close()
            workloads.run_reference(name, day, cold=True)
            workloads.run_reference(name, day)


def run_figures(work: Path) -> None:
    from repro.experiments.cli import main

    for figure in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        if main([figure]) != 0:
            raise AssertionError(f"repro-taxi {figure} failed")


class _OneRound:
    """The ``benchmark`` fixture's ``pedantic`` call, run once."""

    def pedantic(self, target: Callable[[], object], **_: object) -> object:
        return target()


def run_ablations(work: Path) -> None:
    import importlib

    for path in sorted((ROOT / "benchmarks").glob("test_ablation_*.py")):
        module = importlib.import_module(f"benchmarks.{path.stem}")
        for name in dir(module):
            if name.startswith("test_"):
                getattr(module, name)(_OneRound(), lambda figure_id, report: None)


def run_fullmonth_day(work: Path) -> None:
    script = runpy.run_path(str(ROOT / "scripts" / "run_fullmonth.py"))
    argv = ["--days", "1", "--scale", "0.1", "--checkpoint-dir", str(work / "fullmonth")]
    if script["main"](argv) != 0:
        raise AssertionError("run_fullmonth.py reported a cold/warm mismatch")


def run_lint(work: Path) -> None:
    from repro.devtools.cli import main

    if main([str(SRC)]) != 0:
        raise AssertionError("repro-lint src/ reported findings")


ENTRY_POINTS: dict[str, Callable[[Path], None]] = {
    "examples/*.py": run_examples,
    "perfbench workloads (smoke)": run_perfbench_smoke,
    "repro-taxi fig4..fig9": run_figures,
    "benchmarks/test_ablation_*.py": run_ablations,
    "scripts/run_fullmonth.py (one day)": run_fullmonth_day,
    "repro-lint src/": run_lint,
}


def census() -> tuple[list[Function], dict[str, float]]:
    """Run every entry point; return the uncalled functions (outermost
    only, in source order) and each entry point's wall seconds."""
    functions = inventory()
    codes: set[CodeType] = set()
    seconds: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        for label, run in ENTRY_POINTS.items():
            began = time.perf_counter()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with recording(codes):
                    run(Path(tmp))
            seconds[label] = time.perf_counter() - began
    called = set()
    for code in codes:
        key = (os.path.realpath(code.co_filename), code.co_firstlineno)
        if key in functions:
            called.add(functions[key])
    uncalled = [
        f
        for f in functions.values()
        if f not in called and (f.parent is None or f.parent in called)
    ]
    return uncalled, seconds


def exemption_of(function: Function) -> str | None:
    """The first exemption glob ``function`` matches, if any."""
    for patterns in EXEMPTIONS.values():
        for pattern in patterns:
            if fnmatch.fnmatchcase(function.name, pattern):
                return pattern
    return None


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    began = time.perf_counter()
    uncalled, seconds = census()
    tag_of = {p: reason.split(":")[0] for reason, ps in EXEMPTIONS.items() for p in ps}
    used: set[str] = set()
    exempt_lines = unexempt_lines = unexempt = 0
    for function in uncalled:
        pattern = exemption_of(function)
        if pattern is None:
            unexempt += 1
            unexempt_lines += function.lines
            verdict = "NOT EXEMPT"
        else:
            used.add(pattern)
            exempt_lines += function.lines
            verdict = f"exempt: {tag_of[pattern]}"
        rel = os.path.relpath(function.path, ROOT)
        print(f"{function.lines:5d}  {rel}:{function.first_line}  {function.qualname}  [{verdict}]")
    stale = [p for p in tag_of if p not in used]
    for pattern in stale:
        print(f"stale exemption (matches no uncalled function): {pattern}")
    for label, spent in seconds.items():
        print(f"entry point {label}: {spent:.1f} s")
    print(
        f"census: {len(uncalled)} uncalled functions, {exempt_lines + unexempt_lines} lines "
        f"({exempt_lines} exempt; {unexempt} functions, {unexempt_lines} lines not exempt); "
        f"{len(stale)} stale exemptions; {time.perf_counter() - began:.1f} s"
    )
    return 1 if unexempt or stale else 0


if __name__ == "__main__":
    sys.exit(main())
