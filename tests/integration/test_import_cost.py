"""What ``import repro`` loads.

Every simulation run pays the package import before its first frame.
``scipy.stats`` (one Student-t quantile in ``summarize_samples``) and
``scipy.optimize`` (MCBM's ``linear_sum_assignment``) cost about a
second of it between them, so they load where they are called.  A fresh
interpreter runs perfbench's set-up import list, checks neither module
came with it, then calls both users and reports what they return, which
must be what they returned while the imports were eager.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

PROBE = """
import json, sys
from perfbench.workloads import import_repro

import_repro()
eager = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)

from repro.analysis.stats import summarize_samples
from repro.core.config import DispatchConfig
from repro.dispatch.nonsharing import MinCostDispatcher, MinimaxDispatcher
from repro.geometry import EuclideanDistance
from repro.trace import SyntheticTraceGenerator, boston_profile

summary = summarize_samples([1.0, 2.5, 4.0, 3.25])
generator = SyntheticTraceGenerator(boston_profile().scaled(0.02), seed=11)
requests, taxis = generator.requests_for_day(30), generator.fleet(20)
schedules = {
    cls.__name__: sorted(cls(EuclideanDistance(), DispatchConfig()).dispatch(taxis, requests)
                         .taxi_of.items())
    for cls in (MinCostDispatcher, MinimaxDispatcher)
}
print(json.dumps({
    "eager": eager,
    "summary": [summary.mean.hex(), summary.ci_low.hex(), summary.ci_high.hex()],
    "schedules": schedules,
}))
"""


def test_set_up_imports_leave_scipy_stats_and_optimize_to_their_callers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True,
    )
    report = json.loads(completed.stdout)
    assert report["eager"] == []
    assert report["summary"] == [
        "0x1.5800000000000p+1", "0x1.4c77d81056d64p-1", "0x1.2e7104fdf5254p+2",
    ]
    assert report["schedules"] == {
        "MinCostDispatcher": [
            [1, 3], [3, 14], [4, 1], [5, 18], [7, 6], [8, 11], [10, 13], [13, 12], [15, 19],
            [16, 2], [17, 17], [18, 8], [19, 10], [21, 4], [22, 9], [23, 16], [24, 7], [26, 5],
            [27, 0], [28, 15],
        ],
        "MinimaxDispatcher": [
            [0, 8], [1, 1], [2, 7], [3, 2], [4, 3], [5, 5], [6, 6], [7, 9], [8, 10], [9, 13],
            [10, 11], [11, 16], [12, 14], [13, 12], [15, 4], [16, 15], [17, 17], [21, 18],
            [26, 0], [28, 19],
        ],
    }
