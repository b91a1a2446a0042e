"""The chaos smoke run, wired into the suite.

``scripts/run_chaos.py`` is the operational entry point; this test runs
the same harness in-process so CI exercises the full stack — fault
injection, the degradation ladder absorbing it, and the faults-off
bit-identity check — without shelling out.
"""

import importlib.util
import sys
from pathlib import Path

CHAOS_PATH = Path(__file__).resolve().parents[2] / "scripts" / "run_chaos.py"


def load_chaos_module():
    spec = importlib.util.spec_from_file_location("run_chaos", CHAOS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_chaos_smoke_run_holds_all_invariants():
    chaos = load_chaos_module()
    summary, failures = chaos.run_chaos(seed=13)
    assert failures == []
    # The schedule is deterministic, so the run must actually have
    # exercised the resilience layer, not passed vacuously.
    assert summary["total_degraded_frames"] + summary["total_faults_absorbed"] > 0
    for name in chaos.ALGORITHMS:
        stats = summary[name]
        assert stats["frames"] > 0
        assert "dropped" not in stats["served_by_rung"]
