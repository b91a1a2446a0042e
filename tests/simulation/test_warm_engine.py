"""Engine-level warm-start equivalence on a small city simulation.

The dispatcher- and solver-level identity guarantees live in the
matching and property suites; this one drives the whole stack —
workload synthesis, the simulation engine, the frame cache, the
telemetry plumbing — and checks that flipping ``warm_start`` changes
nothing observable except the perf counters it adds.  Warm frames ship
packed schedules; the engine's packed fast path and its generic
fallback must execute identical frames, and malformed packed schedules
are rejected rather than executed.
"""

import numpy as np
import pytest

from repro.dispatch.base import PackedSingleSchedule
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import ExperimentScale, build_workload, city_simulation_config
from repro.geometry import EuclideanDistance
from repro.simulation import Simulator
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()


@pytest.fixture(scope="module")
def workload():
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.02, seed=5, hours=(17.0, 19.0))
    sim_config = city_simulation_config(profile.scaled(scale.factor))
    fleet, requests = build_workload(profile, scale)
    return sim_config, fleet, requests


def _run(sim_config, fleet, requests, *, warm, optimize_for="passenger", dispatcher_cls=None):
    dispatcher = (dispatcher_cls or NSTDDispatcher)(
        ORACLE, sim_config.dispatch, optimize_for=optimize_for, warm_start=warm
    )
    simulator = Simulator(dispatcher, ORACLE, sim_config)
    return simulator.run(fleet, requests), simulator


def _observable(result):
    return (
        result.summary(),
        [
            (o.request_id, o.taxi_id, o.dispatch_time_s, o.pickup_time_s)
            for o in result.outcomes
        ],
        [
            (a.frame_time_s, a.taxi_id, a.request_ids, a.total_drive_km, a.revenue_km)
            for a in result.assignments
        ],
    )


class _PassThroughDispatcher(NSTDDispatcher):
    """Warm dispatcher whose packed schedules are re-wrapped.

    Copying the sequences breaks the engine's ``is``-identity check, so
    every packed frame is forced down the generic validation path — the
    two runs must still be indistinguishable.
    """

    def dispatch(self, taxis, requests):
        schedule = super().dispatch(taxis, requests)
        if isinstance(schedule, PackedSingleSchedule):
            return PackedSingleSchedule(
                list(schedule.taxis),
                list(schedule.requests),
                schedule.taxi_rows,
                schedule.request_rows,
                pickup_km=schedule.pickup_km,
            )
        return schedule


class _CorruptPackedDispatcher(NSTDDispatcher):
    """Duplicates the first matched row pair of every packed frame."""

    def dispatch(self, taxis, requests):
        schedule = super().dispatch(taxis, requests)
        if isinstance(schedule, PackedSingleSchedule) and schedule.taxi_rows.size:
            dup = np.concatenate([schedule.taxi_rows[:1], schedule.taxi_rows])
            dup_r = np.concatenate([schedule.request_rows[:1], schedule.request_rows])
            return PackedSingleSchedule(schedule.taxis, schedule.requests, dup, dup_r)
        return schedule


class TestWarmEngineEquivalence:
    def test_warm_run_identical_to_cold(self, workload):
        sim_config, fleet, requests = workload
        cold, _ = _run(sim_config, fleet, requests, warm=False)
        warm, _ = _run(sim_config, fleet, requests, warm=True)
        assert _observable(cold) == _observable(warm)

    def test_taxi_mode_identical_too(self, workload):
        sim_config, fleet, requests = workload
        cold, _ = _run(sim_config, fleet, requests, warm=False, optimize_for="taxi")
        warm, _ = _run(sim_config, fleet, requests, warm=True, optimize_for="taxi")
        assert _observable(cold) == _observable(warm)

    def test_perf_stats_report_warm_counters(self, workload):
        sim_config, fleet, requests = workload
        result, _ = _run(sim_config, fleet, requests, warm=True)
        perf = result.perf_stats()
        # One cold seed frame, everything else warm, no fallbacks on a
        # deterministic engine-driven trace.
        assert perf["cold_frames"] >= 1
        assert perf["warm_frames"] > 0
        assert perf.get("warm_fallbacks", 0) == 0
        assert 0.0 < perf["warm_hit_rate"] <= 1.0
        assert 0.0 <= perf["warm_rebuild_fraction"] <= 1.0
        # Cold runs carry none of the warm keys: telemetry only exists
        # when the feature is on.
        cold, _ = _run(sim_config, fleet, requests, warm=False)
        assert "warm_frames" not in cold.perf_stats()

    def test_second_run_on_same_simulator_still_identical(self, workload):
        # The engine owns warm-state lifetime: every run() starts cold
        # (engine resets the dispatcher), so reusing a simulator —
        # stale state and all — must not leak frame one of run two.
        sim_config, fleet, requests = workload
        cold, _ = _run(sim_config, fleet, requests, warm=False)
        _, simulator = _run(sim_config, fleet, requests, warm=True)
        again = simulator.run(fleet, requests)
        assert _observable(again) == _observable(cold)
        perf = again.perf_stats()
        assert perf["cold_frames"] >= 1 and perf["warm_frames"] > 0


class TestPackedExecution:
    def test_generic_path_identical_to_packed(self, workload):
        sim_config, fleet, requests = workload
        packed, _ = _run(sim_config, fleet, requests, warm=True)
        rewrapped, _ = _run(
            sim_config, fleet, requests, warm=True, dispatcher_cls=_PassThroughDispatcher
        )
        assert _observable(packed) == _observable(rewrapped)

    def test_corrupt_packed_rows_are_rejected(self, workload):
        sim_config, fleet, requests = workload
        with pytest.raises(ValueError, match="duplicate or out-of-range"):
            _run(sim_config, fleet, requests, warm=True, dispatcher_cls=_CorruptPackedDispatcher)
