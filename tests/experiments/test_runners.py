"""Unit tests for experiment runners."""

import pytest

from repro.core import DispatchConfig, ExperimentError
from repro.experiments import (
    ExperimentScale,
    build_workload,
    make_dispatcher,
    run_city_experiment,
    run_taxi_sweep,
)
from repro.experiments.settings import NONSHARING_ALGORITHMS, SHARING_ALGORITHMS
from repro.geometry import EuclideanDistance
from repro.resilience import FaultPlan
from repro.trace import boston_profile

TINY = ExperimentScale(factor=0.004, seed=11, hours=(8.0, 9.0))
#: The smallest scale at which Boston's 100- and 200-taxi fleets differ
#: (2 and 4 taxis; at TINY both are 1).
SMALL = ExperimentScale(factor=0.02, seed=11, hours=(8.0, 9.0))


class TestMakeDispatcher:
    @pytest.mark.parametrize("name", NONSHARING_ALGORITHMS + SHARING_ALGORITHMS)
    def test_all_paper_names_resolve(self, name):
        dispatcher = make_dispatcher(name, EuclideanDistance(), DispatchConfig())
        assert dispatcher.name == name

    def test_case_insensitive(self):
        assert make_dispatcher("greedy", EuclideanDistance(), DispatchConfig()).name == "Greedy"

    def test_unknown_name(self):
        with pytest.raises(ExperimentError):
            make_dispatcher("Uber", EuclideanDistance(), DispatchConfig())

    def test_nstd_m_is_not_registered(self):
        # The median stable matching is not one of the paper's ten.
        with pytest.raises(ExperimentError):
            make_dispatcher("NSTD-M", EuclideanDistance(), DispatchConfig())


class TestBuildWorkload:
    def test_deterministic(self):
        profile = boston_profile()
        a_fleet, a_requests = build_workload(profile, TINY)
        b_fleet, b_requests = build_workload(profile, TINY)
        assert [t.location for t in a_fleet] == [t.location for t in b_fleet]
        assert [r.pickup for r in a_requests] == [r.pickup for r in b_requests]

    def test_hour_window_respected(self):
        _, requests = build_workload(boston_profile(), TINY)
        assert all(8 * 3600 <= r.request_time_s < 9 * 3600 for r in requests)

    def test_full_day_counts(self):
        scale = ExperimentScale(factor=0.004, seed=1)
        fleet, requests = build_workload(boston_profile(), scale)
        scaled = boston_profile().scaled(0.004)
        assert len(requests) == scaled.daily_requests
        assert len(fleet) == scaled.n_taxis


class TestRunCityExperiment:
    def test_runs_each_algorithm_on_same_workload(self):
        results = run_city_experiment(boston_profile(), ("Greedy", "MCBM"), TINY)
        assert set(results) == {"Greedy", "MCBM"}
        assert len(results["Greedy"].outcomes) == len(results["MCBM"].outcomes)

    def test_summary_values_present(self):
        results = run_city_experiment(boston_profile(), ("NSTD-P",), TINY)
        summary = results["NSTD-P"].summary()
        assert 0.0 <= summary["service_rate"] <= 1.0

    def test_fault_plan_without_policy_is_rejected(self):
        # Only a ResiliencePolicy's ladder absorbs injected faults.
        with pytest.raises(ExperimentError, match="ResiliencePolicy"):
            run_city_experiment(boston_profile(), ("Greedy",), TINY, faults=FaultPlan(seed=5))


class TestRunTaxiSweep:
    def test_fleet_sizes_scale(self):
        sweep = run_taxi_sweep(boston_profile(), ("Greedy",), (100, 200), SMALL)
        assert list(sweep) == [100, 200]
        small, large = sweep[100]["Greedy"], sweep[200]["Greedy"]
        assert len(small.taxi_stats) < len(large.taxi_stats)
        # More taxis never hurt the service rate on the same trace.
        assert large.service_rate >= small.service_rate - 1e-9
