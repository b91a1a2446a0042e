"""Micro-benchmarks of the core algorithmic kernels.

Times the primitives that dominate a dispatch frame: preference
construction, deferred acceptance, stable-matching enumeration, the
bipartite matchers, group feasibility enumeration, set packing, and the
90-sequence exhaustive route search.

``TestKernelSpeedups`` additionally times the batched distance kernels
against the retained scalar reference at the paper's frame scale (700
taxis) and writes machine-readable ``BENCH_kernels.json`` at the repo
root; ``scripts/check_bench_regression.py`` compares that file against
the committed baseline in ``benchmarks/BENCH_kernels_baseline.json``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch.nonsharing.mincost import build_cost_matrix
from repro.experiments import environment_metadata
from repro.geometry import EuclideanDistance, Point, oracle_pairwise
from repro.matching import (
    all_stable_matchings,
    build_nonsharing_table,
    deferred_acceptance,
    min_cost_matching,
    minimax_matching,
)
from repro.packing import enumerate_feasible_groups, local_search_packing
from repro.routing import optimal_shared_route
from tests.oracles import build_nonsharing_table_reference

ORACLE = EuclideanDistance()
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"


def frame(seed, n_taxis, n_requests, spread=6.0):
    rng = np.random.default_rng(seed)
    taxis = [Taxi(i, Point(*rng.normal(0, spread, 2))) for i in range(n_taxis)]
    requests = [
        PassengerRequest(j, Point(*rng.normal(0, spread, 2)), Point(*rng.normal(0, spread, 2)))
        for j in range(n_requests)
    ]
    return taxis, requests


class TestMatchingKernels:
    def test_bench_preference_table_200x100(self, benchmark):
        taxis, requests = frame(0, 100, 200)
        config = DispatchConfig()
        table = benchmark(build_nonsharing_table, taxis, requests, ORACLE, config)
        assert len(table.proposer_prefs) == 200

    def test_bench_deferred_acceptance_200x100(self, benchmark):
        taxis, requests = frame(1, 100, 200)
        table = build_nonsharing_table(taxis, requests, ORACLE, DispatchConfig())
        matching = benchmark(deferred_acceptance, table)
        assert matching.size == 100

    def test_bench_enumeration_8x8(self, benchmark):
        taxis, requests = frame(2, 8, 8)
        table = build_nonsharing_table(taxis, requests, ORACLE, DispatchConfig())
        matchings = benchmark(all_stable_matchings, table)
        assert len(matchings) >= 1

    def test_bench_min_cost_matching_200x100(self, benchmark):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 20, size=(200, 100))
        pairs = benchmark(min_cost_matching, matrix)
        assert len(pairs) == 100

    def test_bench_minimax_matching_100x60(self, benchmark):
        rng = np.random.default_rng(4)
        matrix = rng.uniform(0, 20, size=(100, 60))
        pairs = benchmark(minimax_matching, matrix)
        assert len(pairs) == 60


class TestSharingKernels:
    def test_bench_route_search_three_riders(self, benchmark):
        rng = np.random.default_rng(5)
        requests = [
            PassengerRequest(i, Point(*rng.normal(0, 2, 2)), Point(*rng.normal(0, 2, 2)))
            for i in range(3)
        ]
        route = benchmark(optimal_shared_route, requests, ORACLE)
        assert len(route.stops) == 6

    def test_bench_feasibility_enumeration_40_requests(self, benchmark):
        _, requests = frame(6, 1, 40, spread=3.0)
        config = DispatchConfig(theta_km=5.0)
        groups = benchmark(
            enumerate_feasible_groups, requests, ORACLE, config
        )
        assert isinstance(groups, list)

    def test_bench_local_search_packing(self, benchmark):
        rng = np.random.default_rng(7)
        sets = [
            frozenset(rng.choice(60, size=int(rng.integers(2, 4)), replace=False).tolist())
            for _ in range(300)
        ]
        result = benchmark(local_search_packing, sets)
        assert result.size >= 1


def _best_ms(fn, *, repeats=3):
    """Best-of-N wall-clock milliseconds (best, not mean, to shed noise)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def _tables_equal(a, b):
    return (
        a.proposer_prefs == b.proposer_prefs
        and a.reviewer_prefs == b.reviewer_prefs
        and a.proposer_scores == b.proposer_scores
        and a.reviewer_scores == b.reviewer_scores
    )


class TestKernelSpeedups:
    """Paper-scale kernel timings, emitted as ``BENCH_kernels.json``.

    The workload is one backlogged NYC-sized frame: 700 idle taxis and
    a 700-request queue (490k candidate pairs) spread over a ~30 km
    city.  The headline row uses a 1.0 km dispatch radius — a 3-minute
    drive at the paper's 20 km/h taxi speed — the operating regime the
    vectorized threshold masking targets; wider-radius and fully
    unthresholded rows are recorded alongside because their speedups
    are necessarily smaller (the table itself grows to O(|T|·|R|)
    Python objects, a cost both paths share).

    Every vectorized result is asserted bit-identical to the scalar
    reference before its timing is recorded, so the JSON never reports
    a speedup for a kernel that changed the answer.
    """

    N_TAXIS = 700
    N_REQUESTS = 700

    def test_kernel_speedups_json(self):
        taxis, requests = frame(11, self.N_TAXIS, self.N_REQUESTS, spread=4.0)
        pairs = len(taxis) * len(requests)
        kernels = {}

        def record(name, ms, *, baseline=None):
            kernels[name] = {
                "ms": round(ms, 4),
                "pairs": pairs,
                "pairs_per_sec": round(pairs / (ms / 1e3), 1),
            }
            if baseline is not None:
                kernels[name]["speedup_vs_scalar"] = round(kernels[baseline]["ms"] / ms, 2)

        # -- preference table at three operating points -------------------
        table_configs = [
            ("radius_1km", DispatchConfig(passenger_threshold_km=1.0, taxi_threshold_km=2.0)),
            ("radius_2km", DispatchConfig(passenger_threshold_km=2.0, taxi_threshold_km=4.0)),
            ("unthresholded", DispatchConfig()),
        ]
        for label, config in table_configs:
            reference = build_nonsharing_table_reference(taxis, requests, ORACLE, config)
            vectorized = build_nonsharing_table(taxis, requests, ORACLE, config)
            assert _tables_equal(reference, vectorized), label
            record(
                f"preference_table_scalar_{label}",
                _best_ms(
                    lambda config=config: build_nonsharing_table_reference(
                        taxis, requests, ORACLE, config
                    )
                ),
            )
            record(
                f"preference_table_vectorized_{label}",
                _best_ms(
                    lambda config=config: build_nonsharing_table(taxis, requests, ORACLE, config)
                ),
                baseline=f"preference_table_scalar_{label}",
            )

        # -- raw pairwise kernel ------------------------------------------
        pickups = [r.pickup for r in requests]
        locations = [t.location for t in taxis]

        def scalar_pairwise():
            return [[ORACLE.distance(p, loc) for loc in locations] for p in pickups]

        batch = oracle_pairwise(ORACLE, sources=pickups, targets=locations, exact=True)
        assert np.array_equal(np.asarray(scalar_pairwise()), batch)
        record("pairwise_scalar", _best_ms(scalar_pairwise))
        record(
            "pairwise_euclidean",
            _best_ms(lambda: oracle_pairwise(ORACLE, sources=pickups, targets=locations, exact=True)),
            baseline="pairwise_scalar",
        )

        # -- bipartite cost matrix ----------------------------------------
        threshold = table_configs[0][1].passenger_threshold_km  # radius_1km

        def scalar_cost_matrix():
            matrix = np.full((len(requests), len(taxis)), math.inf)
            for j, request in enumerate(requests):
                for i, taxi in enumerate(taxis):
                    if request.passengers > taxi.seats:
                        continue
                    d = ORACLE.distance(taxi.location, request.pickup)
                    if d <= threshold:
                        matrix[j, i] = d
            return matrix

        vec_matrix = build_cost_matrix(taxis, requests, ORACLE, threshold)
        assert np.array_equal(scalar_cost_matrix(), vec_matrix)
        record("cost_matrix_scalar", _best_ms(scalar_cost_matrix))
        record(
            "cost_matrix_batched",
            _best_ms(lambda: build_cost_matrix(taxis, requests, ORACLE, threshold)),
            baseline="cost_matrix_scalar",
        )

        payload = {
            "schema": "bench-kernels/2",
            "source": "benchmarks/test_micro_algorithms.py::TestKernelSpeedups",
            "environment": environment_metadata(),
            "workload": {
                "n_taxis": self.N_TAXIS,
                "n_requests": self.N_REQUESTS,
                "pairs": pairs,
                "oracle": "EuclideanDistance",
                "seed": 11,
                "spread_km": 4.0,
                "headline": "preference_table_vectorized_radius_1km",
            },
            "kernels": kernels,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
        print()
        print(json.dumps(payload, indent=2))

        # The tentpole's acceptance bar: ≥10× at paper scale.
        assert kernels["preference_table_vectorized_radius_1km"]["speedup_vs_scalar"] >= 10.0
