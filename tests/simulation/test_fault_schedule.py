"""A fault is a function of (seed, frame, attempt), never of call counts.

The degradation ladder arms the fault injector once per dispatch
attempt, and the attempt's fault is decided then, from the injector
seed, the frame index and the attempt number.  So a solver that makes
more or fewer oracle calls sees the same faults in the same frames:

* a dispatcher that makes one extra armed ``pairwise`` call per attempt
  produces the plain dispatcher's run under the chaos smoke's plan;
* faulted warm NSTD-P equals faulted cold NSTD-P, although the warm
  solver scores only churn strips and so makes far fewer calls.

Each comparison covers every field of ``scripts/run_chaos.py``'s
``comparable``: outcomes, assignments, taxi totals, frame statistics
and resilience records less their wall-clock fields.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.dispatch.nonsharing import NSTDDispatcher
from repro.dispatch.sharing import STDDispatcher
from repro.experiments import ExperimentScale, build_workload, city_simulation_config
from repro.experiments.runners import _cell_key
from repro.geometry import EuclideanDistance
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.simulation import Simulator
from repro.trace import boston_profile

CHAOS_PATH = Path(__file__).resolve().parents[2] / "scripts" / "run_chaos.py"


def load_chaos_module():
    spec = importlib.util.spec_from_file_location("run_chaos_schedule", CHAOS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


chaos = load_chaos_module()

#: The chaos smoke run's fault plan and policy (``scripts/run_chaos.py``).
PLAN = FaultPlan(
    seed=13, latency_rate=0.08, latency_s=45.0, error_rate=0.01, per_call_cost_s=0.05
)
POLICY = ResiliencePolicy(budget_fraction=0.5, transient_retries=2)


def city_workload(factor, hours):
    """Boston at ``factor`` over ``hours``, built as the experiment
    runners build it (trace seed 11)."""
    profile = boston_profile()
    scale = ExperimentScale(factor=factor, seed=11, hours=hours)
    fleet, requests = build_workload(profile, scale)
    return city_simulation_config(profile.scaled(scale.factor)), fleet, requests


@pytest.fixture(scope="module")
def smoke_workload():
    """The chaos smoke run's city-day: Boston at factor 0.02, 8–9 h."""
    return city_workload(0.02, (8.0, 9.0))


@pytest.fixture(scope="module")
def boston_slice():
    """Boston at factor 0.1, 7–10 h: 20 taxis and 225 requests."""
    return city_workload(0.1, (7.0, 10.0))


@pytest.fixture(scope="module")
def crash_workload():
    """The crash-recovery matrix's workload (``scripts/run_chaos.py``)."""
    return chaos.crash_workload()


class ExtraCall:
    """Makes one extra armed oracle call at the start of every attempt."""

    def dispatch(self, taxis, requests):
        self.oracle.pairwise([taxis[0].location], [requests[0].pickup])
        return super().dispatch(taxis, requests)


class ExtraCallNSTD(ExtraCall, NSTDDispatcher):
    pass


class ExtraCallSTD(ExtraCall, STDDispatcher):
    pass


def make_dispatcher_for(mode, oracle, sim_config, *, extra_call=False):
    config = sim_config.dispatch
    if mode == "std-p":
        cls = ExtraCallSTD if extra_call else STDDispatcher
        # As make_dispatcher("STD-P") builds it.
        return cls(oracle, config, optimize_for="passenger", pairing_radius_km=2 * config.theta_km)
    cls = ExtraCallNSTD if extra_call else NSTDDispatcher
    return cls(oracle, config, warm_start=mode == "warm-nstd-p")


def faulted_run(mode, workload, *, extra_call=False):
    """One run of ``mode`` under the chaos plan; returns (result, calls)."""
    sim_config, fleet, requests = workload
    # The injector run_city_experiment gives this algorithm's cell.
    name = "STD-P" if mode == "std-p" else "NSTD-P"
    injector = PLAN.build_injector(_cell_key(boston_profile(), name))
    oracle = injector.wrap(EuclideanDistance())
    dispatcher = make_dispatcher_for(mode, oracle, sim_config, extra_call=extra_call)
    policy = POLICY.with_injector(injector)
    result = Simulator(dispatcher, oracle, sim_config, resilience=policy).run(fleet, requests)
    return result, injector.calls


@pytest.mark.parametrize("mode", ["cold-nstd-p", "warm-nstd-p", "std-p"])
def test_an_extra_armed_call_per_attempt_moves_no_fault(smoke_workload, mode):
    plain, plain_calls = faulted_run(mode, smoke_workload)
    extra, extra_calls = faulted_run(mode, smoke_workload, extra_call=True)
    assert extra_calls > plain_calls
    assert plain.resilience.degraded_frames  # the plan reaches this run
    assert chaos.comparable(extra) == chaos.comparable(plain)


@pytest.mark.parametrize("workload", ["smoke_workload", "boston_slice", "crash_workload"])
def test_faulted_warm_nstd_p_equals_faulted_cold(request, workload):
    workload = request.getfixturevalue(workload)
    cold, cold_calls = faulted_run("cold-nstd-p", workload)
    warm, warm_calls = faulted_run("warm-nstd-p", workload)
    assert warm.dispatch_telemetry["warm_frames"] > 0
    assert warm_calls < cold_calls
    assert cold.resilience.degraded_frames
    assert chaos.comparable(warm) == chaos.comparable(cold)
