"""Matching-core benchmarks: dict vs array deferred acceptance.

Times the two deferred-acceptance engines and the two preference
builders at the paper's frame scale (700 NYC taxis against a
700-request backlog), plus one end-to-end NSTD city-day through the
simulation engine, and writes machine-readable ``BENCH_matching.json``
at the repo root.  ``scripts/check_bench_regression.py`` compares that
file against the committed baseline in
``benchmarks/BENCH_matching_baseline.json``.

Every array-engine result is asserted bit-identical to the retained
dict reference — matching *and* proposal/refusal counters — before its
timing is recorded, so the JSON never reports a speedup for an engine
that changed the answer.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import (
    ExperimentScale,
    build_workload,
    city_simulation_config,
    environment_metadata,
)
from repro.geometry import EuclideanDistance, Point
from repro.matching import (
    build_nonsharing_arrays,
    build_nonsharing_table,
    deferred_acceptance_arrays,
    deferred_acceptance_dict,
)
from repro.matching.preferences import PreferenceTable
from repro.simulation import Simulator
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_matching.json"


def frame(seed, n_taxis, n_requests, spread=6.0):
    rng = np.random.default_rng(seed)
    taxis = [Taxi(i, Point(*rng.normal(0, spread, 2))) for i in range(n_taxis)]
    requests = [
        PassengerRequest(j, Point(*rng.normal(0, spread, 2)), Point(*rng.normal(0, spread, 2)))
        for j in range(n_requests)
    ]
    return taxis, requests


def _best_ms(fn, *, repeats=3):
    """Best-of-N wall-clock milliseconds (best, not mean, to shed noise)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def _fresh_table(table):
    """Re-wrap a table's dicts so lazy rank caches start cold.

    The dict engine builds per-reviewer rank maps on first use and
    memoizes them on the table.  In production every frame sees a brand
    new table, so the honest per-frame cost includes that build; timing
    a warmed table would flatter the dict engine.
    """
    return PreferenceTable(
        proposer_prefs=table.proposer_prefs,
        reviewer_prefs=table.reviewer_prefs,
        validate=False,
    )


class TestMatchingCoreSpeedups:
    """Paper-scale matching timings, emitted as ``BENCH_matching.json``.

    The workload mirrors ``TestKernelSpeedups``: one backlogged
    NYC-sized frame, 700 idle taxis against a 700-request queue over a
    ~30 km city.  Deferred acceptance is timed at two operating points —
    a 1.0 km dispatch radius (sparse lists, the thresholded regime) and
    fully unthresholded (dense 700-entry lists, 490k edges, the paper's
    worst case and the headline row) — plus the whole frame (build +
    match) on each path, and one end-to-end NSTD-P city-day through the
    simulator (NSTD-P always runs on arrays; the dict and array engines
    are compared by the per-frame rows).
    """

    N_TAXIS = 700
    N_REQUESTS = 700

    def test_matching_speedups_json(self):
        taxis, requests = frame(11, self.N_TAXIS, self.N_REQUESTS, spread=4.0)
        pairs = len(taxis) * len(requests)
        rows = {}

        def record(name, ms, *, baseline=None, extra=None):
            rows[name] = {"ms": round(ms, 4)}
            if baseline is not None:
                rows[name]["speedup_vs_dict"] = round(rows[baseline]["ms"] / ms, 2)
            if extra:
                rows[name].update(extra)

        configs = [
            ("radius_1km", DispatchConfig(passenger_threshold_km=1.0, taxi_threshold_km=2.0)),
            ("unthresholded", DispatchConfig()),
        ]

        # -- deferred acceptance, engine vs engine ------------------------
        for label, config in configs:
            table = build_nonsharing_table(taxis, requests, ORACLE, config)
            arrays = build_nonsharing_arrays(taxis, requests, ORACLE, config)

            matching_dict, stats_dict = deferred_acceptance_dict(
                _fresh_table(table), with_stats=True
            )
            matching_array, stats_array = deferred_acceptance_arrays(arrays, with_stats=True)
            assert matching_dict.pairs == matching_array.pairs, label
            assert stats_dict == stats_array, label

            record(
                f"da_dict_{label}",
                _best_ms(lambda table=table: deferred_acceptance_dict(_fresh_table(table))),
                extra={"edges": arrays.n_pairs, "matched": matching_dict.size},
            )
            record(
                f"da_array_{label}",
                _best_ms(lambda arrays=arrays: deferred_acceptance_arrays(arrays)),
                baseline=f"da_dict_{label}",
                extra={"edges": arrays.n_pairs, "matched": matching_array.size},
            )

            # -- the whole frame: build preferences, then match ----------
            record(
                f"frame_total_dict_{label}",
                _best_ms(
                    lambda config=config: deferred_acceptance_dict(
                        build_nonsharing_table(taxis, requests, ORACLE, config)
                    )
                ),
            )
            record(
                f"frame_total_array_{label}",
                _best_ms(
                    lambda config=config: deferred_acceptance_arrays(
                        build_nonsharing_arrays(taxis, requests, ORACLE, config)
                    )
                ),
                baseline=f"frame_total_dict_{label}",
            )

        # -- end-to-end NSTD-P city-day -----------------------------------
        profile = nyc_profile()
        scale = ExperimentScale(factor=0.1, seed=2017, hours=(17.0, 19.0))
        sim_config = city_simulation_config(profile.scaled(scale.factor))
        fleet, day_requests = build_workload(profile, scale)

        def run_city_day():
            dispatcher = NSTDDispatcher(ORACLE, sim_config.dispatch, optimize_for="passenger")
            simulator = Simulator(dispatcher, ORACLE, sim_config)
            return simulator.run(fleet, day_requests)

        def e2e_row(result):
            perf = result.perf_stats()
            return perf["total_dispatch_ms"], {
                "frames": int(perf["frames"]),
                "active_frames": int(perf["active_frames"]),
                "p50_dispatch_ms": round(perf["p50_dispatch_ms"], 4),
                "p95_dispatch_ms": round(perf["p95_dispatch_ms"], 4),
                "frames_over_budget": int(perf["frames_over_budget"]),
                "service_rate": round(result.service_rate, 6),
            }

        # Best-of-two city-days: the totals aggregate hundreds of
        # frames, so two repeats suffice to shed scheduler noise.
        array_ms, array_extra = min(
            (e2e_row(run_city_day()), e2e_row(run_city_day())), key=lambda row: row[0]
        )
        record("e2e_nstd_city_day_array", array_ms, extra=array_extra)

        payload = {
            "schema": "bench-matching/1",
            "source": "benchmarks/test_matching_core.py::TestMatchingCoreSpeedups",
            "environment": environment_metadata(),
            "workload": {
                "n_taxis": self.N_TAXIS,
                "n_requests": self.N_REQUESTS,
                "pairs": pairs,
                "oracle": "EuclideanDistance",
                "seed": 11,
                "spread_km": 4.0,
                "city_day": {
                    "profile": "new-york",
                    "scale_factor": 0.1,
                    "hours": [17.0, 19.0],
                    "algorithm": "NSTD-P",
                },
                "headline": "da_array_unthresholded",
            },
            "kernels": rows,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
        print()
        print(json.dumps(payload, indent=2))

        # The acceptance bar: the array engine beats the dict engine ≥3x
        # on the paper's dense worst-case frame.
        assert rows["da_array_unthresholded"]["speedup_vs_dict"] >= 3.0
