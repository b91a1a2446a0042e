"""Pinned warm-start counters of one warm batch run and one streaming run.

Every warm path is checked bit-identical to cold elsewhere, but a warm
solver that retained nothing would pass those checks too: it would
score every pair, cold-sized, and still answer right.  These pins fix
how much each run solved warm and how many pairs it scored, so a change
to the retention rule or the churn strips that silently gives up the
saving fails here.
"""

from dataclasses import replace

import pytest

from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import ExperimentScale, build_workload, city_simulation_config
from repro.geometry import EuclideanDistance
from repro.simulation import Simulator
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()
KEYS = ("warm_frames", "cold_frames", "warm_fallbacks", "pairs_scored_warm", "full_pairs_warm")

#: Engine -> the counters of :data:`KEYS`, in order.
PINS = {
    "batch": (98, 1, 0, 2472, 4012),
    "streaming": (98, 1, 0, 2460, 3966),
}


@pytest.fixture(scope="module")
def workload():
    """Two NYC evening hours (35 taxis, 310 requests) moved to t = 0,
    with ten minutes' patience."""
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.05, seed=5, hours=(17.0, 19.0))
    start_s = 17.0 * 3600.0
    sim_config = replace(
        city_simulation_config(profile.scaled(scale.factor)),
        horizon_s=2.0 * 3600.0,
        passenger_patience_s=600.0,
    )
    fleet, requests = build_workload(profile, scale)
    requests = [replace(r, request_time_s=r.request_time_s - start_s) for r in requests]
    return sim_config, fleet, requests


def _run(engine: str, sim_config, fleet, requests):
    if engine == "batch":
        dispatcher = NSTDDispatcher(ORACLE, sim_config.dispatch, warm_start=True)
        return Simulator(dispatcher, ORACLE, sim_config).run(fleet, requests)
    return StreamingEngine(ORACLE, sim_config).run(fleet, requests)


@pytest.mark.parametrize("engine", sorted(PINS))
def test_warm_counters_are_pinned(workload, engine):
    result = _run(engine, *workload)
    telemetry = result.dispatch_telemetry
    assert tuple(int(telemetry.get(key, 0)) for key in KEYS) == PINS[engine]
