"""SIGKILL crash/resume bit-identity, wired into the suite.

``scripts/run_chaos.py --crash-recovery`` is the operational entry
point; this test runs the same harness in-process so CI proves the
acceptance criterion directly: a journaled+checkpointed run SIGKILLed
at three distinct frame offsets (boundary and mid-frame), in each of
the cold NSTD-P, warm NSTD-P and STD-P dispatch modes, with and without
a seeded fault injector, resumes to a result bit-identical to the
uninterrupted reference.
"""

import importlib.util
import sys
from pathlib import Path

CHAOS_PATH = Path(__file__).resolve().parents[2] / "scripts" / "run_chaos.py"


def load_chaos_module():
    spec = importlib.util.spec_from_file_location("run_chaos_recovery", CHAOS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_sigkill_resume_is_bit_identical_across_modes_and_offsets(tmp_path):
    chaos = load_chaos_module()
    summary, failures = chaos.run_crash_recovery(tmp_path)
    assert failures == []
    # The matrix must actually cover >= 3 offsets x 6 modes, and every
    # case must have completed the full run after resume.
    assert summary.pop("cases") == 18
    assert len(summary) == 18
    assert {case.split("@")[0] for case in summary} == {
        "cold", "warm", "std-p", "faulted", "faulted-warm", "faulted-std-p"
    }
    assert len({case.split("@")[1] for case in summary}) >= 3
    # The three recovery shapes: journal-only replay (no snapshot yet),
    # snapshot + replay, and snapshot-at-crash-frame (zero replay).
    replayed = {case: stats["replayed_verified"] for case, stats in summary.items()}
    assert any(n > 0 for n in replayed.values())
    assert any(n == 0 for n in replayed.values())
    # Every case reports its artifact sizes; history makes the journal,
    # not the snapshots, the larger of the two.
    for stats in summary.values():
        assert 0 < stats["snapshot_bytes_max"] < stats["journal_bytes"]
