"""Pinned result digests of the experiment runners.

The runners' results are deterministic in their arguments, fault
schedules included: an injector derives from the plan's seed and the
cell key alone, and the degradation ladder absorbs every injected fault.
So these CRCs of every observable result field must never move.

A faulted run's digest does not depend on how many oracle calls a
dispatcher makes: each dispatch attempt's fault is a function of the
injector seed, the frame index and the attempt number, so a change that
adds or removes oracle calls deals the same faults to the same frames
(``tests/simulation/test_fault_schedule.py`` checks this with an extra
call per attempt).  Call counts reach a faulted run only through the
plan's per-call cost, which at this scale moves no frame across its
budget: STD-P's costliest frame charges 3.05 virtual seconds of 30.
"""

import zlib
from dataclasses import astuple, replace

import pytest

from repro.experiments import ExperimentScale, run_city_experiment, run_taxi_sweep
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.trace import boston_profile

SCALE = ExperimentScale(factor=0.02, seed=11, hours=(8.0, 9.0))
ALGORITHMS = ("Greedy", "NSTD-P", "STD-P")
#: The chaos smoke run's fault schedule and policy (``scripts/run_chaos.py``).
PLAN = FaultPlan(
    seed=13, latency_rate=0.08, latency_s=45.0, error_rate=0.01, per_call_cost_s=0.05
)
POLICY = ResiliencePolicy(budget_fraction=0.5, transient_retries=2)


def comparable(result):
    """Everything observable about a run except wall-clock telemetry.

    The same fields as ``comparable`` in ``scripts/run_chaos.py``, copied
    so that editing the script cannot move these pins.
    """
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


def digests(results):
    """CRC32 of each algorithm's :func:`comparable` repr, as hex."""
    return {
        name: f"{zlib.crc32(repr(comparable(result)).encode()):08x}"
        for name, result in results.items()
    }


@pytest.mark.parametrize(
    ("faults", "resilience", "expected"),
    [
        (PLAN, POLICY, {"Greedy": "e66a9c4d", "NSTD-P": "55f057d3", "STD-P": "055a863e"}),
        (None, POLICY, {"Greedy": "791473a1", "NSTD-P": "49ee7c85", "STD-P": "87edce55"}),
        (None, None, {"Greedy": "39411d63", "NSTD-P": "bd0748ef", "STD-P": "0cb89300"}),
    ],
    ids=["plan+policy", "policy", "plain"],
)
def test_city_experiment_digests(faults, resilience, expected):
    results = run_city_experiment(
        boston_profile(), ALGORITHMS, SCALE, faults=faults, resilience=resilience
    )
    assert list(results) == list(ALGORITHMS)
    assert digests(results) == expected


def test_faulted_taxi_sweep_digests():
    sweep = run_taxi_sweep(
        boston_profile(), ALGORITHMS, (100, 200), SCALE, faults=PLAN, resilience=POLICY
    )
    assert list(sweep) == [100, 200]
    assert {count: digests(cell) for count, cell in sweep.items()} == {
        100: {"Greedy": "c1a06eaa", "NSTD-P": "f034cb70", "STD-P": "9ff5f621"},
        200: {"Greedy": "e66a9c4d", "NSTD-P": "55f057d3", "STD-P": "055a863e"},
    }
