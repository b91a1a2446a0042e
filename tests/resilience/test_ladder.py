"""Unit tests for the degradation ladder and resilience policy."""

import pickle

import pytest

from repro.core.config import DispatchConfig
from repro.dispatch.nonsharing.greedy import GreedyNearestDispatcher
from repro.dispatch.nonsharing.nstd import NSTDDispatcher
from repro.geometry import EuclideanDistance
from repro.resilience import FaultInjector, ResiliencePolicy, Rung, default_ladder


class TestDefaultLadder:
    def test_shape(self):
        ladder = default_ladder()
        assert [r.name for r in ladder] == [
            "primary",
            "nstd-arrays",
            "nstd-threshold",
            "greedy",
        ]
        assert ladder[0].factory is None
        assert all(r.budgeted for r in ladder[:-1])
        assert not ladder[-1].budgeted

    def test_factories_build_expected_dispatchers(self):
        oracle = EuclideanDistance()
        config = DispatchConfig(theta_km=1.0)
        _, arrays_rung, threshold_rung, greedy_rung = default_ladder()
        arrays = arrays_rung.factory(oracle, config)
        assert isinstance(arrays, NSTDDispatcher)
        thresholded = threshold_rung.factory(oracle, config)
        assert isinstance(thresholded, NSTDDispatcher)
        assert thresholded.config.passenger_threshold_km <= 2.0 * config.theta_km
        assert thresholded.config.taxi_threshold_km <= 2.0 * config.theta_km
        assert isinstance(greedy_rung.factory(oracle, config), GreedyNearestDispatcher)


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(budget_fraction=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(headroom_fraction=1.5)
        with pytest.raises(ValueError):
            ResiliencePolicy(transient_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(ladder=())

    def test_primary_budget(self):
        assert ResiliencePolicy(budget_fraction=0.5).primary_budget_s(60.0) == 30.0

    def test_rung_deadlines_are_nondecreasing_and_within_frame(self):
        policy = ResiliencePolicy(budget_fraction=0.5, headroom_fraction=0.95)
        deadlines = [policy.rung_deadline_s(i, 3, 60.0) for i in range(3)]
        assert deadlines == sorted(deadlines)
        assert deadlines[0] == pytest.approx(30.0)
        assert all(d <= 0.95 * 60.0 + 1e-9 for d in deadlines)

    def test_resolved_clock_precedence(self):
        injector = FaultInjector(0)
        explicit = lambda: 42.0  # noqa: E731
        assert ResiliencePolicy().resolved_clock().__qualname__  # perf_counter
        assert ResiliencePolicy(fault_injector=injector).resolved_clock() == injector.clock
        assert (
            ResiliencePolicy(fault_injector=injector, clock=explicit).resolved_clock()
            is explicit
        )

    def test_make_budget_uses_policy_clock(self):
        injector = FaultInjector(0)
        policy = ResiliencePolicy(budget_fraction=0.5, fault_injector=injector)
        budget = policy.make_budget(60.0)
        assert budget.duration_s == 30.0
        injector.advance(31.0)
        assert budget.expired()

    def test_with_injector_returns_bound_copy(self):
        policy = ResiliencePolicy()
        injector = FaultInjector(5)
        bound = policy.with_injector(injector)
        assert bound.fault_injector is injector
        assert policy.fault_injector is None

    def test_build_rungs_reuses_primary(self):
        oracle = EuclideanDistance()
        primary = NSTDDispatcher(oracle, DispatchConfig())
        rungs = ResiliencePolicy().build_rungs(primary, oracle)
        assert rungs[0][1] is primary
        assert all(d.config is not None for _, d in rungs)

    def test_policy_is_picklable(self):
        # Module-level rung factories keep a policy a plain value that
        # pickles and copies like one.
        policy = ResiliencePolicy(budget_fraction=0.4, transient_retries=1)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.budget_fraction == 0.4
        assert [r.name for r in clone.ladder] == [r.name for r in policy.ladder]

    def test_custom_ladder_rung(self):
        rung = Rung("only-greedy", None, budgeted=False)
        policy = ResiliencePolicy(ladder=(rung,))
        assert policy.ladder[0].name == "only-greedy"
