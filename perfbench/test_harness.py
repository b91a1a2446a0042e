"""Self-tests of the benchmark harness (smoke size, about a minute).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, LAYER_MAP, PER_LAYER, ZERO_ON_HONEST_RUNS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SMOKE_SEED = 11


def bench(*args: str) -> tuple[dict, dict]:
    """Run ``perfbench/run.py`` at smoke size; returns (details, result)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--size", "smoke",
         "--seed", str(SMOKE_SEED), "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details)["details"], json.loads(result)


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, tuple[dict, dict]]:
    return {w: bench("--workload", w, "--trace", "1") for w in WORKLOADS}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["paths"] == ["perfbench"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_map_names_only_declared_metrics_and_workloads():
    declared = {name for name, _, _ in PER_LAYER}
    e2e = {name for name, _, _ in END_TO_END}
    mapped = set()
    for metrics, workloads, moved in LAYER_MAP:
        assert set(metrics) <= declared
        assert set(workloads) <= set(WORKLOADS)
        assert set(moved) <= e2e
        mapped.update(metrics)
    assert mapped == declared, declared - mapped


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    details, result = bench("--workload", "durable-day")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["samples"]["setups"] >= 3
    assert details["environment"]["work_dir_filesystem"]


def test_traced_run_emits_every_per_layer_metric_with_its_unit(traced_runs):
    for workload, (details, result) in traced_runs.items():
        assert result["correct"], (workload, details["failures"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            name: unit for name, unit, _ in PER_LAYER
        }, workload


def test_traced_run_covers_every_layer_listed_for_each_workload(traced_runs):
    for metrics, workloads, _ in LAYER_MAP:
        for workload in workloads:
            values = traced_runs[workload][1]["metrics"]
            silent = [
                m for m in metrics if m not in ZERO_ON_HONEST_RUNS and values[m]["value"] == 0
            ]
            assert not silent, (workload, silent)


def test_traced_layers_partition_the_run(traced_runs):
    for workload, (_, result) in traced_runs.items():
        residual = result["metrics"]["trace.residual_frac"]["value"]
        assert abs(residual) < 0.05, (workload, residual)


def test_dropped_assignment_fails_the_output_check():
    details, result = bench("--workload", "durable-day", "--drop-one-assignment")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("differ from the reference path" in f for f in details["failures"])


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "durable-day", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
