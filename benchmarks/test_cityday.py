"""Paper-scale city-day benchmark: cold vs warm vs streaming NSTD-P.

Runs the full NYC city-day (scale_factor 1.0, the paper's 24-hour
trace shape) end to end through the simulation engine several times —
the stateless cold dispatcher, the warm-start dispatcher that carries
solver state across frames, and the event-driven streaming engine in
its epoch-equals-frame equivalence mode — asserts all runs are
bit-identical in everything but wall clock, and writes machine-readable
``BENCH_cityday.json`` at the repo root.
``scripts/check_bench_regression.py --suite cityday`` compares that
file against the committed baseline in
``benchmarks/BENCH_cityday_baseline.json``.

The headline row times the *whole* simulation (engine + dispatch), not
just the dispatcher: warm start must pay for itself against every
shared overhead to count.  Per-frame dispatcher totals and the warm
telemetry (hit rate, fallbacks, rebuild fraction) ride along as row
extras.

Smoke mode (``BENCH_SMOKE=1``, used by ``scripts/run_benchmarks.sh
--smoke`` and CI) shrinks the workload to a two-hour 2% slice, skips
the speedup floor (tiny frames are all noise), and writes the artifact
under ``benchmarks/output/`` so the committed baseline never sees
smoke numbers.
"""

import json
import math
import os
import time
from pathlib import Path

from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import (
    ExperimentScale,
    build_workload,
    city_simulation_config,
    environment_metadata,
)
from repro.geometry import EuclideanDistance
from repro.resilience import DEFAULT_AUDIT_RATE, StabilityAuditor
from repro.simulation import Simulator
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()
REPO_ROOT = Path(__file__).resolve().parent.parent

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
BENCH_JSON = (
    REPO_ROOT / "benchmarks" / "output" / "BENCH_cityday_smoke.json"
    if SMOKE
    else REPO_ROOT / "BENCH_cityday.json"
)
SCALE_FACTOR = 0.02 if SMOKE else 1.0
HOURS = (17.0, 19.0) if SMOKE else None
REPEATS = 1 if SMOKE else 3
SEED = 7
MIN_WARM_SPEEDUP = 1.5
#: The cold and warm city-day wall times of one run of the previous warm
#: solver (plain churn strips, rank-based rounds, object egress),
#: measured on a one-CPU x86_64 host with CPython 3.11 and NumPy 2.4.
#: Pinned here so baseline refreshes cannot move the reference the
#: current warm solver is held to.
PINNED_COLD_MS = 4216.8063
PINNED_WARM_HEADLINE_MS = 2599.3487
#: The warm run must beat the pinned warm solver by this factor.
MIN_SPEEDUP_VS_PINNED_WARM = 1.25
#: The same bar as a same-run ratio, so it does not depend on the host's
#: speed: beating the pinned warm time by 1.25x on the pin's host is a
#: warm speedup over this run's cold path of 1.25 x 4216.8063 / 2599.3487
#: (about 2.028).
MIN_WARM_SPEEDUP_VS_COLD = MIN_SPEEDUP_VS_PINNED_WARM * PINNED_COLD_MS / PINNED_WARM_HEADLINE_MS


class TestCityDayBenchmark:
    """Full-scale city-day timings, emitted as ``BENCH_cityday.json``."""

    def test_cityday_json(self):
        profile = nyc_profile()
        scale = ExperimentScale(factor=SCALE_FACTOR, seed=SEED, hours=HOURS)
        sim_config = city_simulation_config(profile.scaled(scale.factor))
        fleet, day_requests = build_workload(profile, scale)

        def run_city_day(warm, audited=False):
            """One full simulated day; returns (result, e2e wall ms)."""
            dispatcher = NSTDDispatcher(
                ORACLE, sim_config.dispatch, optimize_for="passenger", warm_start=warm
            )
            auditor = StabilityAuditor(rate=DEFAULT_AUDIT_RATE) if audited else None
            simulator = Simulator(dispatcher, ORACLE, sim_config, auditor=auditor)
            start = time.perf_counter()
            result = simulator.run(fleet, day_requests)
            return result, (time.perf_counter() - start) * 1e3

        def assert_identical(reference, candidate):
            """Bit-identity in everything but wall clock: same headline
            metrics, same outcomes, same assignments, across the full
            benchmark trace."""
            assert reference.summary() == candidate.summary()
            assert [
                (o.request_id, o.taxi_id, o.dispatch_time_s) for o in reference.outcomes
            ] == [(o.request_id, o.taxi_id, o.dispatch_time_s) for o in candidate.outcomes]
            assert [
                (a.taxi_id, a.request_ids) for a in reference.assignments
            ] == [(a.taxi_id, a.request_ids) for a in candidate.assignments]

        result_cold, first_cold_ms = run_city_day(False)
        result_warm, first_warm_ms = run_city_day(True)

        # The warm mode must be indistinguishable from the cold global
        # solve before it is timed.
        assert_identical(result_cold, result_warm)

        warm_perf = result_warm.perf_stats()
        assert warm_perf.get("warm_frames", 0) > 0
        assert warm_perf.get("cold_frames", 0) >= 1
        if not SMOKE:
            # The deterministic seed-7 trace never trips a fallback;
            # one appearing here means a warm precondition broke.
            assert warm_perf.get("warm_fallbacks", 0) == 0

        # Best-of-N whole-simulation runs per mode (best, not mean, to
        # shed scheduler noise; the first runs above count as rep one).
        best_cold = (result_cold, first_cold_ms)
        best_warm = (result_warm, first_warm_ms)
        for _ in range(REPEATS - 1):
            best_cold = min(best_cold, run_city_day(False), key=lambda r: r[1])
            best_warm = min(best_warm, run_city_day(True), key=lambda r: r[1])

        rows = {}

        def record(name, result, e2e_ms, *, baseline=None, extra=None):
            perf = result.perf_stats()
            rows[name] = {
                "ms": round(e2e_ms, 4),
                "total_dispatch_ms": round(perf["total_dispatch_ms"], 4),
                "frames": int(perf["frames"]),
                "active_frames": int(perf["active_frames"]),
                "p50_dispatch_ms": round(perf["p50_dispatch_ms"], 4),
                "p95_dispatch_ms": round(perf["p95_dispatch_ms"], 4),
                "frames_over_budget": int(perf["frames_over_budget"]),
                "service_rate": round(result.service_rate, 6),
            }
            if baseline is not None:
                rows[name]["speedup_vs_cold"] = round(rows[baseline]["ms"] / e2e_ms, 3)
            if extra:
                rows[name].update(extra)

        record("cityday_nstd_p_cold", *best_cold)
        warm_best_perf = best_warm[0].perf_stats()
        record(
            "cityday_nstd_p_warm",
            *best_warm,
            baseline="cityday_nstd_p_cold",
            extra={
                "warm_frames": int(warm_best_perf.get("warm_frames", 0)),
                "cold_frames": int(warm_best_perf.get("cold_frames", 0)),
                "warm_fallbacks": int(warm_best_perf.get("warm_fallbacks", 0)),
                "warm_hit_rate": round(warm_best_perf.get("warm_hit_rate", 0.0), 4),
                "warm_rebuild_fraction": round(
                    warm_best_perf.get("warm_rebuild_fraction", math.nan), 4
                ),
                # The warm speedup over cold, relative to the pinned
                # solver's, in the same run.
                "speedup_vs_pinned_warm": round(
                    rows["cityday_nstd_p_cold"]["ms"]
                    / best_warm[1]
                    * PINNED_WARM_HEADLINE_MS
                    / PINNED_COLD_MS,
                    3,
                ),
            },
        )

        # Warm run with the runtime stability auditor riding along at its
        # default sampling rate: still bit-identical (audits either pass
        # or heal to the same matching), zero divergences on the honest
        # trace, and the sampled re-verification stays within its 5%
        # overhead budget.  One rep — the row documents the audit cost
        # envelope, not a best-of race.
        result_audited, audited_ms = run_city_day(True, audited=True)
        assert_identical(result_cold, result_audited)
        audited_perf = result_audited.perf_stats()
        assert audited_perf["audit_divergences"] == 0
        assert audited_perf["audit_healed"] == 0
        record(
            "cityday_nstd_p_warm_audited",
            result_audited,
            audited_ms,
            baseline="cityday_nstd_p_cold",
            extra={
                "audit_rate": round(DEFAULT_AUDIT_RATE, 6),
                "frames_audited": int(audited_perf["frames_audited"]),
                "audit_divergences": int(audited_perf["audit_divergences"]),
                "audit_ms": round(audited_perf["audit_ms"], 4),
                "audit_overhead_fraction": round(
                    audited_perf["audit_overhead_fraction"], 6
                ),
            },
        )
        if not SMOKE:
            assert audited_perf["frames_audited"] > 0
            assert audited_perf["audit_overhead_fraction"] < 0.05

        # Event-driven streaming engine in its equivalence mode (epoch
        # length = frame length, warm per-zone matchers): must be
        # bit-identical to the cold batch run before any timing counts.
        def run_streaming():
            engine = StreamingEngine(ORACLE, sim_config)
            start = time.perf_counter()
            result = engine.run(fleet, day_requests)
            return result, (time.perf_counter() - start) * 1e3

        result_streaming, first_streaming_ms = run_streaming()
        assert_identical(result_cold, result_streaming)
        streaming_perf_check = result_streaming.perf_stats()
        assert streaming_perf_check.get("warm_frames", 0) > 0
        if not SMOKE:
            assert streaming_perf_check.get("warm_fallbacks", 0) == 0
        best_streaming = (result_streaming, first_streaming_ms)
        for _ in range(REPEATS - 1):
            best_streaming = min(best_streaming, run_streaming(), key=lambda r: r[1])
        streaming_best_perf = best_streaming[0].perf_stats()
        record(
            "cityday_nstd_p_streaming",
            *best_streaming,
            baseline="cityday_nstd_p_cold",
            extra={
                "events_processed": int(streaming_best_perf["events_processed"]),
                "events_per_epoch": round(streaming_best_perf["events_per_epoch"], 4),
                "epochs_run": int(streaming_best_perf["epochs_run"]),
                "boundary_reconciliations": int(
                    streaming_best_perf["boundary_reconciliations"]
                ),
                "zone_groups_mean": round(
                    streaming_best_perf.get("zone_groups_mean", 0.0), 4
                ),
                "zones_active_max": int(streaming_best_perf["zones_active_max"]),
                "zone_queue_depth_max": int(
                    streaming_best_perf["zone_queue_depth_max"]
                ),
                "zone_km": round(streaming_best_perf.get("zone_km", 0.0), 4),
                "warm_frames": int(streaming_best_perf.get("warm_frames", 0)),
                "cold_frames": int(streaming_best_perf.get("cold_frames", 0)),
                "warm_fallbacks": int(streaming_best_perf.get("warm_fallbacks", 0)),
                "warm_hit_rate": round(
                    streaming_best_perf.get("warm_hit_rate", 0.0), 4
                ),
            },
        )

        payload = {
            "schema": "bench-cityday/1",
            "source": "benchmarks/test_cityday.py::TestCityDayBenchmark",
            "environment": environment_metadata(),
            "workload": {
                "profile": "new-york",
                "scale_factor": SCALE_FACTOR,
                "hours": list(HOURS) if HOURS else None,
                "seed": SEED,
                "n_taxis": len(fleet),
                "n_requests": len(day_requests),
                "algorithm": "NSTD-P",
                "oracle": "EuclideanDistance",
                "repeats": REPEATS,
                "smoke": SMOKE,
                "headline": "cityday_nstd_p_warm",
            },
            "kernels": rows,
        }
        BENCH_JSON.parent.mkdir(exist_ok=True)
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
        print()
        print(json.dumps(payload, indent=2))

        # Acceptance bars, full scale only (smoke frames are a few dozen
        # requests each, all fixed overhead): the warm-start city-day
        # beats the cold one ≥1.5x end to end, and its speedup over cold
        # is ≥1.25x the pinned previous solver's (same-run ratio).
        if not SMOKE:
            warm_row = rows["cityday_nstd_p_warm"]
            assert warm_row["speedup_vs_cold"] >= MIN_WARM_SPEEDUP
            assert warm_row["speedup_vs_cold"] >= MIN_WARM_SPEEDUP_VS_COLD
