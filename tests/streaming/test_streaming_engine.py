"""StreamingEngine: batch equivalence, telemetry, degradation, guards.

The headline contract — epoch length equal to the frame length makes
the streaming engine bit-identical to the batch engine — is asserted
here on the same city-day smoke slice the engine suites use, down to
the per-frame statistics series.
"""

from dataclasses import replace

import pytest

from repro.core.errors import SimulationError
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import ExperimentScale, build_workload, city_simulation_config
from repro.geometry import EuclideanDistance
from repro.simulation import Simulator
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()


@pytest.fixture(scope="module")
def workload():
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.02, seed=5, hours=(17.0, 19.0))
    sim_config = city_simulation_config(profile.scaled(scale.factor))
    fleet, requests = build_workload(profile, scale)
    return sim_config, fleet, requests


def _batch(sim_config, fleet, requests):
    dispatcher = NSTDDispatcher(
        ORACLE, sim_config.dispatch, optimize_for="passenger", warm_start=False
    )
    return Simulator(dispatcher, ORACLE, sim_config).run(fleet, requests)


def _observable(result):
    return (
        result.summary(),
        [
            (o.request_id, o.taxi_id, o.dispatch_time_s, o.pickup_time_s,
             o.dropoff_time_s, o.passenger_dissatisfaction, o.abandoned)
            for o in result.outcomes
        ],
        [
            (a.frame_time_s, a.taxi_id, a.request_ids, a.taxi_dissatisfaction,
             a.total_drive_km, a.revenue_km)
            for a in result.assignments
        ],
        [
            (f.time_s, f.queue_length, f.idle_taxis, f.dispatched_requests,
             f.dispatched_taxis, f.abandoned)
            for f in result.frame_stats
        ],
        result.frames_run,
        result.final_time_s,
    )


class TestBatchEquivalence:
    def test_epoch_equals_frame_is_bit_identical(self, workload):
        """The proven equivalence mode: warm zoned streaming vs the
        cold global batch engine, identical in everything observable."""
        sim_config, fleet, requests = workload
        reference = _batch(sim_config, fleet, requests)
        streamed = StreamingEngine(ORACLE, sim_config).run(fleet, requests)
        assert _observable(reference) == _observable(streamed)

    def test_cold_zones_equivalent_too(self, workload):
        sim_config, fleet, requests = workload
        reference = _batch(sim_config, fleet, requests)
        streamed = StreamingEngine(ORACLE, sim_config, warm_zones=False).run(
            fleet, requests
        )
        assert _observable(reference) == _observable(streamed)
        assert streamed.dispatch_telemetry.get("warm_frames", 0) == 0

    @pytest.mark.parametrize("epoch_s", [60.0, 30.0, 15.0])
    def test_epoch_equals_batch_at_same_frame_length(self, workload, epoch_s):
        """Epoch length ``e`` is the batch engine at frame length ``e``,
        bit for bit — sub-frame epochs included."""
        sim_config, fleet, requests = workload
        reference = _batch(replace(sim_config, frame_length_s=epoch_s), fleet, requests)
        streamed = StreamingEngine(ORACLE, sim_config, epoch_length_s=epoch_s).run(
            fleet, requests
        )
        assert _observable(reference) == _observable(streamed)

    def test_explicit_zone_km_equivalent_too(self, workload):
        sim_config, fleet, requests = workload
        reference = _batch(sim_config, fleet, requests)
        streamed = StreamingEngine(ORACLE, sim_config, zone_km=1.0).run(
            fleet, requests
        )
        assert _observable(reference) == _observable(streamed)
        assert streamed.dispatch_telemetry.get("zone_km") == 1.0


class TestStreamingTelemetry:
    def test_event_and_zone_counters(self, workload):
        sim_config, fleet, requests = workload
        result = StreamingEngine(ORACLE, sim_config).run(fleet, requests)
        telemetry = result.dispatch_telemetry
        assert telemetry["events_arrivals"] == len(requests)
        assert telemetry["events_epochs"] == result.frames_run
        assert telemetry["events_processed"] == (
            telemetry["events_arrivals"] + telemetry["events_epochs"]
        )
        assert telemetry["epochs_run"] == result.frames_run
        assert telemetry["epoch_length_s"] == sim_config.frame_length_s
        assert telemetry["zones_active_max"] >= 1
        assert telemetry["zone_queue_depth_max"] >= 1
        assert telemetry["boundary_reconciliations"] >= 0
        assert telemetry["warm_frames"] > 0
        perf = result.perf_stats()
        assert perf["events_per_epoch"] >= 1.0
        assert perf["warm_hit_rate"] > 0.0
        assert "zone_groups_mean" in perf

    def test_dispatcher_name(self, workload):
        sim_config, fleet, requests = workload
        assert StreamingEngine(ORACLE, sim_config).name == "NSTD-P-streaming"
        assert (
            StreamingEngine(ORACLE, sim_config, optimize_for="taxi").name
            == "NSTD-T-streaming"
        )


class TestSubFrameEpochs:
    def test_shorter_epoch_reacts_faster(self, workload):
        """Half-minute epochs double the epoch count and never increase
        any individual dispatch delay beyond the one-minute run's
        (requests can only be seen sooner, never later)."""
        sim_config, fleet, requests = workload
        minute = StreamingEngine(ORACLE, sim_config).run(fleet, requests)
        half = StreamingEngine(ORACLE, sim_config, epoch_length_s=30.0).run(
            fleet, requests
        )
        assert half.frames_run > minute.frames_run
        assert half.service_rate > 0.0
        # Epoch times advance by the epoch length.
        times = [f.time_s for f in half.frame_stats[:4]]
        assert times == pytest.approx([30.0, 60.0, 90.0, 120.0])


class TestPerZoneDegradationEndToEnd:
    def test_zero_budget_degrades_every_group_but_completes(self, workload):
        """An already-expired epoch budget forces the greedy rung for
        every zone group: the run still completes with every counter
        consistent, no stable matching and no warm state."""
        sim_config, fleet, requests = workload
        result = StreamingEngine(ORACLE, sim_config, epoch_budget_s=0.0).run(
            fleet, requests
        )
        telemetry = result.dispatch_telemetry
        assert telemetry["zone_groups_degraded"] > 0
        assert telemetry["zones_degraded"] >= telemetry["zone_groups_degraded"]
        assert telemetry.get("warm_frames", 0) == 0
        assert result.service_rate > 0.0

    def test_injected_clock_controls_degradation(self, workload):
        """With a frozen injected clock the same zero budget degrades
        nothing: elapsed time never advances, every checkpoint passes,
        and the run is bit-identical to the unbudgeted one."""
        sim_config, fleet, requests = workload
        unbudgeted = StreamingEngine(ORACLE, sim_config).run(fleet, requests)
        frozen = StreamingEngine(
            ORACLE, sim_config, epoch_budget_s=0.0, budget_clock=lambda: 0.0
        ).run(fleet, requests)
        assert _observable(unbudgeted) == _observable(frozen)
        assert frozen.dispatch_telemetry.get("zone_groups_degraded", 0) == 0


class TestInputGuards:
    def test_duplicate_taxi_ids_rejected(self, workload):
        sim_config, fleet, requests = workload
        with pytest.raises(SimulationError):
            StreamingEngine(ORACLE, sim_config).run([fleet[0], fleet[0]], requests)

    def test_duplicate_request_ids_rejected(self, workload):
        sim_config, fleet, requests = workload
        with pytest.raises(SimulationError):
            StreamingEngine(ORACLE, sim_config).run(fleet, [requests[0], requests[0]])

    def test_bad_constructor_values_rejected(self):
        with pytest.raises(ValueError):
            StreamingEngine(ORACLE, epoch_length_s=0.0)
        with pytest.raises(ValueError):
            StreamingEngine(ORACLE, epoch_budget_s=-1.0)
        with pytest.raises(ValueError):
            StreamingEngine(ORACLE, optimize_for="both")
