"""Engine-level tests of the frame-deadline degradation ladder.

Overruns are driven by the fault injector's deterministic virtual
clock (oracle calls charge virtual seconds), so every scenario here is
bit-reproducible and nothing actually sleeps.
"""

from dataclasses import replace

from repro.core import DispatchConfig, PassengerRequest, SimulationConfig, Taxi
from repro.dispatch import nstd_p
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance, Point
from repro.resilience import (
    DROPPED_RUNG,
    FaultInjector,
    ResiliencePolicy,
    Rung,
)
from repro.simulation import Simulator


def fast_config(**kwargs):
    defaults = dict(
        frame_length_s=60.0,
        taxi_speed_kmh=60.0,
        horizon_s=1800.0,
        dispatch=DispatchConfig(),
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def small_workload(n_taxis=3, n_requests=6):
    taxis = [Taxi(i, Point(float(i), 0.0)) for i in range(n_taxis)]
    requests = [
        PassengerRequest(
            j,
            Point(float(j % 4), 1.0),
            Point(float(j % 4), 4.0),
            request_time_s=30.0 + 60.0 * (j // 3),
        )
        for j in range(n_requests)
    ]
    return taxis, requests


def comparable(result):
    return {
        "outcomes": [
            (o.request_id, o.taxi_id, o.dispatch_time_s, o.pickup_time_s, o.dropoff_time_s)
            for o in result.outcomes
        ],
        "assignments": [
            (a.frame_time_s, a.taxi_id, a.request_ids, a.revenue_km)
            for a in result.assignments
        ],
        "frames_run": result.frames_run,
    }


class TestNoPolicy:
    def test_result_has_no_resilience_report(self):
        oracle = EuclideanDistance()
        config = fast_config()
        taxis, requests = small_workload()
        result = Simulator(nstd_p(oracle, config.dispatch), oracle, config).run(taxis, requests)
        assert result.resilience is None


class TestHealthyPolicy:
    def test_identical_to_unprotected_run(self):
        """A generous, fault-free policy must not change the simulation."""
        oracle = EuclideanDistance()
        config = fast_config()
        taxis, requests = small_workload()
        plain = Simulator(nstd_p(oracle, config.dispatch), oracle, config).run(taxis, requests)
        protected = Simulator(
            nstd_p(oracle, config.dispatch),
            oracle,
            config,
            resilience=ResiliencePolicy(),
        ).run(taxis, requests)
        assert comparable(plain) == comparable(protected)
        report = protected.resilience
        assert report is not None and len(report) > 0
        assert report.dropped_frames == 0
        assert not report.degraded_frames
        assert set(report.served_by_rung()) == {"primary"}
        for frame in report.frames:
            assert frame.trigger is None
            assert frame.attempts == 1

    def test_frame_budget_detached_after_run(self):
        oracle = EuclideanDistance()
        config = fast_config()
        taxis, requests = small_workload()
        dispatcher = nstd_p(oracle, config.dispatch)
        Simulator(dispatcher, oracle, config, resilience=ResiliencePolicy()).run(
            taxis, requests
        )
        assert dispatcher.frame_budget is None
        assert dispatcher.frame_cache is None


class TestDegradation:
    def test_slow_oracle_falls_down_to_greedy(self):
        """Huge per-call latency overruns every budgeted rung; the
        unbudgeted greedy terminal rung still answers each frame."""
        injector = FaultInjector(0, per_call_cost_s=1000.0)
        oracle = injector.wrap(EuclideanDistance())
        config = fast_config()
        taxis, requests = small_workload()
        policy = ResiliencePolicy(budget_fraction=0.5).with_injector(injector)
        result = Simulator(
            nstd_p(oracle, config.dispatch), oracle, config, resilience=policy
        ).run(taxis, requests)
        report = result.resilience
        assert report.dropped_frames == 0
        assert report.degraded_frames
        for frame in report.degraded_frames:
            assert frame.rung == "greedy"
            assert frame.trigger == "deadline"
            assert frame.elapsed_s > frame.budget_s
        # Every request is still served: degradation, not loss.
        assert result.service_rate == 1.0

    def test_transient_fault_retries_same_rung(self):
        """One deterministic fault on the first armed call: attempt 1
        faults, attempt 2 serves the frame on the primary rung."""
        injector = FaultInjector(0, fail_first_calls=1)
        oracle = injector.wrap(EuclideanDistance())
        config = fast_config()
        taxis, requests = small_workload()
        policy = ResiliencePolicy(transient_retries=2).with_injector(injector)
        result = Simulator(
            nstd_p(oracle, config.dispatch), oracle, config, resilience=policy
        ).run(taxis, requests)
        report = result.resilience
        assert report.dropped_frames == 0
        assert report.faults_absorbed == 1
        first = report.frames[0]
        assert first.rung == "primary"
        assert first.trigger == "fault"
        assert first.attempts == 2
        # Later frames are clean: the injector only failed once.
        assert all(f.trigger is None for f in report.frames[1:])

    def test_all_budgeted_ladder_can_drop_a_frame(self):
        """Without an unbudgeted terminal rung the engine answers an
        overrun frame with an empty schedule and records the drop."""
        injector = FaultInjector(0, per_call_cost_s=1000.0)
        oracle = injector.wrap(EuclideanDistance())
        config = fast_config()
        taxis, requests = small_workload()
        policy = ResiliencePolicy(
            budget_fraction=0.5, ladder=(Rung("primary", None),)
        ).with_injector(injector)
        result = Simulator(
            nstd_p(oracle, config.dispatch), oracle, config, resilience=policy
        ).run(taxis, requests)
        report = result.resilience
        assert report.dropped_frames > 0
        dropped = [f for f in report.frames if f.rung == DROPPED_RUNG]
        assert all(f.trigger == "deadline" for f in dropped)
        assert report.summary()["dropped_frames"] == float(report.dropped_frames)

    def test_chaos_run_is_reproducible(self):
        """Same plan, same seed: the full result (and the rung history)
        must be bit-identical across runs.  Three forced faults exhaust
        the primary's retries, so the first frame degrades."""

        def run():
            injector = FaultInjector(
                13, latency_rate=0.05, latency_s=40.0, per_call_cost_s=0.2, fail_first_calls=3
            )
            oracle = injector.wrap(EuclideanDistance())
            config = fast_config()
            taxis, requests = small_workload()
            policy = ResiliencePolicy(budget_fraction=0.5).with_injector(injector)
            result = Simulator(
                nstd_p(oracle, config.dispatch), oracle, config, resilience=policy
            ).run(taxis, requests)
            report = result.resilience
            assert report.faults_absorbed == 3
            assert report.frames[0].rung == "nstd-arrays"
            assert report.frames[0].trigger == "fault"
            rungs = [(f.rung, f.trigger, f.attempts) for f in report.frames]
            return comparable(result), rungs

        assert run() == run()

    def test_spike_counts_as_deadline_wherever_the_rung_checkpoints(self):
        """The ladder reads the budget as each attempt returns, so a
        primary that never checkpoints after its spike degrades the
        frame exactly as one that checkpoints does."""

        class NoCheckpointNSTD(NSTDDispatcher):
            def checkpoint(self, label=None):
                pass

        def resilience_records(dispatcher_cls):
            injector = FaultInjector(0, latency_rate=1.0, latency_s=40.0)
            oracle = injector.wrap(EuclideanDistance())
            config = fast_config()
            taxis, requests = small_workload()
            policy = ResiliencePolicy(budget_fraction=0.5).with_injector(injector)
            dispatcher = dispatcher_cls(oracle, config.dispatch, optimize_for="passenger")
            result = Simulator(dispatcher, oracle, config, resilience=policy).run(
                taxis, requests
            )
            return [replace(f, elapsed_s=0.0) for f in result.resilience.frames]

        records = resilience_records(NoCheckpointNSTD)
        assert records and all(f.rung == "greedy" for f in records)
        assert all(f.trigger == "deadline" for f in records)
        assert records == resilience_records(NSTDDispatcher)

    def test_degraded_frames_still_validate_schedules(self):
        injector = FaultInjector(0, per_call_cost_s=1000.0)
        oracle = injector.wrap(EuclideanDistance())
        config = fast_config()
        taxis, requests = small_workload()
        policy = ResiliencePolicy(budget_fraction=0.5).with_injector(injector)
        result = Simulator(
            nstd_p(oracle, config.dispatch), oracle, config, resilience=policy
        ).run(taxis, requests)
        # Greedy-served frames produced real assignments that passed
        # DispatchSchedule.validate (no double-booked taxis/requests).
        assert result.assignments
        taxi_frames = [(a.frame_time_s, a.taxi_id) for a in result.assignments]
        assert len(taxi_frames) == len(set(taxi_frames))


class TestPerfStatsUnderPolicy:
    def test_wall_clock_budget_not_confused_by_virtual_time(self):
        injector = FaultInjector(0, per_call_cost_s=1000.0)
        oracle = injector.wrap(EuclideanDistance())
        config = fast_config()
        taxis, requests = small_workload()
        policy = ResiliencePolicy(budget_fraction=0.5).with_injector(injector)
        result = Simulator(
            nstd_p(oracle, config.dispatch), oracle, config, resilience=policy
        ).run(taxis, requests)
        # dispatch_ms measures *real* wall clock, which stays tiny even
        # though virtual seconds exploded.
        assert result.perf_stats()["frames_over_budget"] == 0.0
