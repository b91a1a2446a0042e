"""Unit tests for experiment runners."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import DispatchConfig, ExperimentError
from repro.experiments import (
    ExperimentScale,
    build_workload,
    make_dispatcher,
    run_city_experiment,
    run_taxi_sweep,
)
from repro.experiments import runners as runners_module
from repro.experiments.settings import NONSHARING_ALGORITHMS, SHARING_ALGORITHMS
from repro.geometry import EuclideanDistance
from repro.trace import boston_profile

TINY = ExperimentScale(factor=0.004, seed=11, hours=(8.0, 9.0))


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


class TestRunTaxiSweep:
    def test_fleet_sizes_scale(self):
        sweep = run_taxi_sweep(boston_profile(), ("Greedy",), (100, 200), TINY)
        assert set(sweep) == {100, 200}
        # More taxis never hurt the service rate on the same trace.
        small = sweep[100]["Greedy"].summary()
        large = sweep[200]["Greedy"].summary()
        assert large["service_rate"] >= small["service_rate"] - 1e-9


class _PoolBrokenAtSubmit:
    """A process pool whose worker died before any cell was submitted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        raise BrokenProcessPool("a child process terminated abruptly")


class TestPoolBrokenAtSubmission:
    def test_unsubmitted_cells_run_serially(self, monkeypatch):
        clean = run_taxi_sweep(boston_profile(), ("Greedy", "MCBM"), (100, 200), TINY)
        monkeypatch.setattr(runners_module, "ProcessPoolExecutor", _PoolBrokenAtSubmit)
        recovered = run_taxi_sweep(
            boston_profile(), ("Greedy", "MCBM"), (100, 200), TINY, workers=2
        )
        assert {count: list(cell) for count, cell in recovered.items()} == {
            count: list(cell) for count, cell in clean.items()
        }
        for count, cell in clean.items():
            for name, result in cell.items():
                assert recovered[count][name].summary() == result.summary(), (count, name)


class TestMedianInRegistry:
    def test_nstd_m_resolves(self):
        dispatcher = make_dispatcher("NSTD-M", EuclideanDistance(), DispatchConfig())
        assert dispatcher.name == "NSTD-M"
