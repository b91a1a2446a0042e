"""Pinned result digests of the experiment runners.

The runners' results are deterministic in their arguments, fault
schedules included: an injector derives from the plan's seed and the
cell key alone, and the degradation ladder absorbs every injected fault.
So these CRCs of every observable result field must never move.

A faulted run's digest also depends on how many oracle calls each frame
makes, since the fault schedule is drawn per call: STD-P's plan+policy
pins are those of its warm frames, which make fewer calls than the cold
frames it once ran (its policy-only and plain pins did not move).  They
moved once more when STD stopped reading a whole pickup-gap matrix on
every batch change: a warm frame now measures gap strips only when new
requests arrive.  And once more when the sharing table's approach call
became a fault opportunity like every other batch call (it used to
bypass the injector through a kernel entry point the wrapper did not
intercept).  And once more, for NSTD-P and STD-P, when trips became a
table measured at run start with the injector disarmed: frames stopped
measuring new requests' trips, so they draw fewer faults.
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
        (PLAN, POLICY, {"Greedy": "791473a1", "NSTD-P": "90415b1f", "STD-P": "67440468"}),
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
        100: {"Greedy": "c1a06eaa", "NSTD-P": "7007d6cf", "STD-P": "5877093c"},
        200: {"Greedy": "791473a1", "NSTD-P": "90415b1f", "STD-P": "67440468"},
    }
