"""Unit tests for the deterministic fault-injection harness."""

import pickle

import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.core.errors import TransientFaultError
from repro.dispatch.sharing import build_sharing_table
from repro.geometry import EuclideanDistance, Point
from repro.geometry.batch import oracle_paired, oracle_pairwise
from repro.matching import build_nonsharing_arrays, passenger_optimal
from repro.matching.warm_frame import (
    frame_operands,
    frame_state_from_cold,
    warm_frame_solve,
)
from repro.resilience import FaultInjector, FaultPlan, FaultyOracle
from repro.routing import build_ride_group


def events(injector, frames, calls_per_attempt=1):
    """Arm attempt 1 of each frame, make the calls, and name what each
    attempt saw: ``"error"``, ``"spike"`` or ``"ok"``."""
    seen = []
    for frame in frames:
        spikes = injector.latency_spikes
        injector.arm(frame, 1)
        try:
            for _ in range(calls_per_attempt):
                injector.before_call()
            injector.deliver()
        except TransientFaultError:
            seen.append("error")
        else:
            seen.append("spike" if injector.latency_spikes > spikes else "ok")
        finally:
            injector.disarm()
    return seen


class TestFaultInjector:
    def test_deterministic_schedule(self):
        def schedule(seed):
            return events(FaultInjector(seed, latency_rate=0.3, error_rate=0.2), range(50))

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert {"error", "spike", "ok"} == set(schedule(7))

    def test_call_counts_do_not_move_faults(self):
        # A fault is a function of (seed, frame, attempt): attempts that
        # make no call, one call or five calls, with disarmed calls in
        # between, see the same faults frame for frame.
        def schedule(calls_per_attempt):
            injector = FaultInjector(3, latency_rate=0.3, error_rate=0.1)
            seen = []
            for frame in range(40):
                injector.before_call()  # disarmed: never faults
                seen += events(injector, [frame], calls_per_attempt)
            return seen

        assert schedule(0) == schedule(1) == schedule(5)
        # Skipping frames does not re-deal the frames after them.
        injector = FaultInjector(3, latency_rate=0.3, error_rate=0.1)
        assert events(injector, range(20, 40)) == schedule(1)[20:]

    def test_draw_decides_error_then_latency(self):
        injector = FaultInjector(11, latency_rate=0.5, error_rate=0.25)
        for frame in range(64):
            draw = int(injector.frame_draws(frame, 1), 16) / 2**32
            expected = "error" if draw < 0.25 else "spike" if draw < 0.75 else "ok"
            assert events(injector, [frame]) == [expected]

    def test_latency_advances_virtual_clock_only(self):
        injector = FaultInjector(0, latency_rate=1.0, latency_s=5.0)
        injector.arm(0, 1)
        assert injector.clock() == 0.0
        injector.before_call()
        assert injector.clock() == pytest.approx(5.0)
        assert injector.latency_spikes == 1
        # The attempt's fault lands once: its later calls are clean.
        injector.before_call()
        injector.deliver()
        assert injector.clock() == pytest.approx(5.0)
        assert injector.latency_spikes == 1

    def test_an_attempt_without_calls_takes_its_fault_on_return(self):
        injector = FaultInjector(0, error_rate=1.0)
        injector.arm(4, 2)
        with pytest.raises(TransientFaultError):
            injector.deliver()
        injector.deliver()  # delivered once
        assert (injector.calls, injector.errors_raised) == (0, 1)

    def test_disarm_drops_an_untaken_fault(self):
        injector = FaultInjector(0, error_rate=1.0)
        injector.arm(0, 1)
        injector.disarm()
        injector.deliver()
        injector.before_call()
        assert injector.errors_raised == 0

    def test_starts_disarmed(self):
        injector = FaultInjector(0, error_rate=1.0, fail_first_calls=1)
        assert not injector.armed
        injector.before_call()  # would raise if armed
        assert injector.errors_raised == 0

    def test_per_call_cost_charged_even_disarmed(self):
        injector = FaultInjector(0, per_call_cost_s=0.5, error_rate=1.0)
        injector.disarm()
        injector.before_call()  # would raise if armed
        assert injector.clock() == pytest.approx(0.5)
        assert injector.errors_raised == 0

    def test_fail_first_calls(self):
        injector = FaultInjector(0, fail_first_calls=2)
        injector.arm(0, 1)
        with pytest.raises(TransientFaultError):
            injector.before_call()
        injector.arm(0, 2)
        with pytest.raises(TransientFaultError):
            injector.before_call()
        injector.arm(0, 3)
        injector.before_call()  # third call is clean
        assert injector.errors_raised == 2

    def test_frame_draws_name_each_attempt(self):
        injector = FaultInjector(5)
        assert injector.frame_draws(9, 0) == ""
        draws = injector.frame_draws(9, 3).split(":")
        assert len(draws) == len(set(draws)) == 3
        assert all(len(d) == 8 for d in draws)
        assert injector.frame_draws(9, 2) == ":".join(draws[:2])
        assert FaultInjector(6).frame_draws(9, 3) != injector.frame_draws(9, 3)

    def test_state_payload_is_counters_and_clock(self):
        injector = FaultInjector(1, latency_rate=1.0, per_call_cost_s=0.25)
        events(injector, range(3))
        payload = injector.state_payload()
        assert payload == {
            "calls": 3, "latency_spikes": 3, "errors_raised": 0, "virtual_s": 15.75
        }
        restored = FaultInjector(1, latency_rate=1.0, per_call_cost_s=0.25)
        restored.restore_state(payload)
        assert restored.state_payload() == payload
        assert events(restored, range(3, 6)) == events(injector, range(3, 6))

    def test_advance(self):
        injector = FaultInjector(0)
        injector.advance(3.25)
        assert injector.clock() == pytest.approx(3.25)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(0, latency_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(0, error_rate=-0.1)

    @pytest.mark.parametrize("field", ["latency_s", "per_call_cost_s"])
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -100.0])
    def test_non_finite_or_negative_times_are_rejected(self, field, seconds):
        # A nan latency would set the virtual clock to nan, and a frame
        # budget on a nan clock never expires; a negative one runs the
        # clock backwards.
        with pytest.raises(ValueError, match=field):
            FaultInjector(0, latency_rate=1.0, **{field: seconds})
        with pytest.raises(ValueError, match=field):
            FaultPlan(seed=0, latency_rate=1.0, **{field: seconds})


class TestFaultyOracle:
    def test_disarmed_is_observationally_identical(self):
        base = EuclideanDistance()
        injector = FaultInjector(0, error_rate=1.0)
        injector.disarm()
        wrapped = injector.wrap(base)
        a, b = Point(0, 0), Point(3, 4)
        assert wrapped.distance(a, b) == base.distance(a, b)
        assert wrapped.batch_exact == bool(getattr(base, "batch_exact", False))

    def test_armed_errors_propagate(self):
        injector = FaultInjector(0, error_rate=1.0)
        wrapped = injector.wrap(EuclideanDistance())
        injector.arm(0, 1)
        with pytest.raises(TransientFaultError):
            wrapped.distance(Point(0, 0), Point(1, 1))

    def test_batch_calls_count_one_fault_opportunity(self):
        injector = FaultInjector(0)
        wrapped = injector.wrap(EuclideanDistance())
        points = [Point(0, 0), Point(1, 1)]
        matrix = wrapped.pairwise(points, points)
        assert injector.calls == 1
        assert matrix.shape == (2, 2)
        # And the wrapper is itself usable through the batch helpers.
        assert oracle_pairwise(wrapped, sources=points, targets=points).shape == (2, 2)

    def test_warm_frame_counts_each_strip_and_trip_call(self):
        base = EuclideanDistance()
        config = DispatchConfig()
        taxis = [Taxi(0, Point(0.0, 0.0)), Taxi(1, Point(5.0, 5.0)), Taxi(2, Point(9.0, 9.0))]
        requests = [PassengerRequest(0, Point(0.1, 0.0), Point(1.0, 1.0))]
        matching = passenger_optimal(build_nonsharing_arrays(taxis, requests, base, config))
        trip = oracle_paired(
            base, sources=[requests[0].pickup], targets=[requests[0].dropoff], exact=True
        )
        state = frame_state_from_cold(
            frame_operands(taxis, requests, trip_km=trip, alpha=config.alpha), matching
        )
        # Taxis 1 and 2 are retained, taxi 3 and request 1 are new: the
        # new-taxi strip and the retained-taxi strip, and no trip call
        # (the new request's trip is the caller's operand).
        frame = (
            [taxis[1], taxis[2], Taxi(3, Point(1.0, 1.0))],
            [PassengerRequest(1, Point(4.0, 4.0), Point(2.0, 2.0))],
        )
        new_trip = oracle_paired(
            base, sources=[frame[1][0].pickup], targets=[frame[1][0].dropoff], exact=True
        )
        operands = frame_operands(*frame, trip_km=new_trip, alpha=config.alpha)
        injector = FaultInjector(0)
        faulted = warm_frame_solve(state, operands, injector.wrap(base), config)
        assert injector.calls == 2
        assert faulted[0] == warm_frame_solve(state, operands, base, config)[0]

    def test_sharing_table_counts_its_approach_call(self):
        base = EuclideanDistance()
        requests = [
            PassengerRequest(0, Point(0.0, 0.0), Point(2.0, 0.0)),
            PassengerRequest(1, Point(0.5, 0.0), Point(2.5, 0.0)),
        ]
        units = [build_ride_group(0, requests, base), build_ride_group(1, requests[:1], base)]
        taxis = [Taxi(0, Point(1.0, 1.0)), Taxi(1, Point(-1.0, 0.0))]
        terms: dict = {}
        build_sharing_table(taxis, units, base, terms=terms)
        assert len(terms) == 2
        injector = FaultInjector(0)
        build_sharing_table(taxis, units, injector.wrap(base), terms=terms)
        assert injector.calls == 1

    def test_base_and_injector_accessors(self):
        base = EuclideanDistance()
        injector = FaultInjector(0)
        wrapped = FaultyOracle(base, injector)
        assert wrapped.base is base
        assert wrapped.injector is injector


class TestFaultPlan:
    def test_picklable(self):
        plan = FaultPlan(seed=9, latency_rate=0.1, error_rate=0.02)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_injector_derivation_is_stable_and_distinct(self):
        plan = FaultPlan(seed=1, latency_rate=0.2)
        a = plan.build_injector("city:10:NSTD-P")
        a_again = plan.build_injector("city:10:NSTD-P")
        b = plan.build_injector("city:10:GREEDY")
        assert a.seed == a_again.seed
        assert a.seed != b.seed
