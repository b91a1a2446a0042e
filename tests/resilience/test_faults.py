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


class TestFaultInjector:
    def test_deterministic_schedule(self):
        def schedule(seed):
            injector = FaultInjector(seed, latency_rate=0.3, error_rate=0.2)
            events = []
            for _ in range(50):
                spikes = injector.latency_spikes
                try:
                    injector.before_call()
                except TransientFaultError:
                    events.append("error")
                else:
                    events.append("spike" if injector.latency_spikes > spikes else "ok")
            return events

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_latency_advances_virtual_clock_only(self):
        injector = FaultInjector(0, latency_rate=1.0, latency_s=5.0)
        assert injector.clock() == 0.0
        injector.before_call()
        assert injector.clock() == pytest.approx(5.0)
        assert injector.latency_spikes == 1

    def test_per_call_cost_charged_even_disarmed(self):
        injector = FaultInjector(0, per_call_cost_s=0.5, error_rate=1.0)
        injector.disarm()
        injector.before_call()  # would raise if armed
        assert injector.clock() == pytest.approx(0.5)
        assert injector.errors_raised == 0

    def test_disarmed_calls_do_not_consume_rng(self):
        armed_only = FaultInjector(3, latency_rate=0.5)
        interleaved = FaultInjector(3, latency_rate=0.5)
        for _ in range(20):
            armed_only.before_call()
        for i in range(40):
            if i % 2:
                interleaved.disarm()
            else:
                interleaved.arm()
            interleaved.before_call()
        # 20 armed calls either way -> identical spike count.
        assert interleaved.latency_spikes == armed_only.latency_spikes

    def test_fail_first_calls(self):
        injector = FaultInjector(0, fail_first_calls=2)
        with pytest.raises(TransientFaultError):
            injector.before_call()
        with pytest.raises(TransientFaultError):
            injector.before_call()
        injector.before_call()  # third call is clean
        assert injector.errors_raised == 2

    def test_advance(self):
        injector = FaultInjector(0)
        injector.advance(3.25)
        assert injector.clock() == pytest.approx(3.25)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(0, latency_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(0, error_rate=-0.1)


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
