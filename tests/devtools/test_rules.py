"""Fixture-driven rule tests.

Every rule has a known-bad fixture that must fire at exact (rule, line)
coordinates and a known-good twin that must stay silent — both under
``tests/devtools/fixtures/``.  The bad fixtures are linted with
``select=[rule]`` so each case isolates its own rule; the good fixtures
are additionally checked against the *full* rule set, so a "good"
example is good under every invariant at once.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (bad fixture, expected finding lines, good fixture)
CASES = [
    ("REP001", "rep001_bad.py", [9, 10, 11], "rep001_good.py"),
    ("REP002", "rep002_bad.py", [9, 10, 11], "rep002_good.py"),
    ("REP003", "rep003_bad.py", [9], "rep003_good.py"),
    ("REP004", "rep004_bad.py", [9, 13], "rep004_good.py"),
    ("REP005", "rep005_bad.py", [11, 12], "rep005_good.py"),
    ("REP006", "rep006_bad.py", [5, 7], "rep006_good.py"),
    ("REP007", "rep007_bad.py", [4, 9, 12], "rep007_good.py"),
    ("REP008", "rep008_bad.py", [17, 36, 44, 60, 66, 79], "rep008_good.py"),
    ("REP009", "rep009_bad.py", [4, 8, 13], "rep009_good.py"),
    ("REP010", "rep010_bad.py", [22, 28], "rep010_good.py"),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule, bad, lines, good", CASES, ids=[case[0] for case in CASES]
    )
    def test_bad_fixture_flagged_at_exact_lines(self, rule, bad, lines, good):
        report = lint_paths([FIXTURES / bad], select=[rule])
        assert [(f.rule, f.line) for f in report.findings] == [
            (rule, line) for line in lines
        ]
        assert not report.ok
        assert not report.suppressed

    @pytest.mark.parametrize(
        "rule, bad, lines, good", CASES, ids=[case[0] for case in CASES]
    )
    def test_good_fixture_clean_under_all_rules(self, rule, bad, lines, good):
        report = lint_paths([FIXTURES / good])
        assert report.ok, [f.render() for f in report.findings]
        assert not report.suppressed


class TestWallClock:
    def test_resilience_clock_modules_whitelisted(self):
        source = "import time\nelapsed = time.monotonic()\n"
        assert lint_source(source, "src/repro/resilience/budget.py").ok
        assert lint_source(source, "src/repro/resilience/ladder.py").ok
        assert not lint_source(source, "src/repro/simulation/engine.py").ok

    def test_from_import_alias_resolved(self):
        report = lint_source("from time import sleep\nsleep(1.0)\n", "x.py")
        assert [(f.rule, f.line) for f in report.findings] == [("REP001", 2)]


class TestSeededRng:
    def test_submodule_alias_resolved(self):
        report = lint_source(
            "import numpy.random as npr\nx = npr.rand()\n", "x.py"
        )
        assert [(f.rule, f.line) for f in report.findings] == [("REP002", 2)]

    def test_instance_methods_not_flagged(self):
        assert lint_source(
            "import random\nrng = random.Random(7)\nx = rng.random()\n", "x.py"
        ).ok


class TestCheckpointCooperative:
    def test_dispatcher_base_class_detected(self):
        source = (
            "class Mine(Dispatcher):\n"
            "    def dispatch(self, taxis, requests):\n"
            "        for t in taxis:\n"
            "            pass\n"
        )
        report = lint_source(source, "x.py", select=["REP003"])
        assert [(f.rule, f.line) for f in report.findings] == [("REP003", 2)]

    def test_loop_free_dispatch_not_flagged(self):
        source = (
            "class Mine(Dispatcher):\n"
            "    def dispatch(self, taxis, requests):\n"
            "        return None\n"
        )
        assert lint_source(source, "x.py", select=["REP003"]).ok


class TestFloatEquality:
    def test_final_attribute_names_the_quantity(self):
        report = lint_source(
            "def f(trip):\n    return trip.distance_km == 0.0\n", "x.py",
            select=["REP006"],
        )
        assert [(f.rule, f.line) for f in report.findings] == [("REP006", 2)]

    def test_array_size_and_shape_not_flagged(self):
        source = (
            "def f(distances, gap):\n"
            "    return distances.size == 0 or gap.shape != (2, 2)\n"
        )
        assert lint_source(source, "x.py", select=["REP006"]).ok


class TestBatchedSources:
    def test_pr1_swapped_operands_bug_is_caught(self):
        # The exact shape of the PR-1 regression: taxi/pickup operands
        # passed positionally, silently transposing the source rows.
        report = lint_paths([FIXTURES / "rep005_bad.py"], select=["REP005"])
        helper = report.findings[0]
        assert helper.rule == "REP005"
        assert "sources=" in helper.message and "targets=" in helper.message
        assert "oracle_pairwise(oracle, pickups, locations" in helper.snippet

    def test_kwargs_forwarding_skipped(self):
        assert lint_source(
            "def f(oracle, **kw):\n    return oracle.pairwise(**kw)\n", "x.py",
            select=["REP005"],
        ).ok
