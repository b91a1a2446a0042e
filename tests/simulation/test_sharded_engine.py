"""Engine-level identity of the fused warm solver on a small city day.

The fused solver (fact matrices, unmatched-only address index, keyed GS
rounds, legs returned with the matching) was once reached only through
``sharded=True``; it is now the solver behind every warm frame, and
every warm frame ships a :class:`PackedSingleSchedule`.  This test
drives the whole stack and checks that such a run is indistinguishable
from the cold run, and that the packed schedules really are what the
engine executed.
"""

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


class _PackedCountingDispatcher(NSTDDispatcher):
    """Counts the frames whose schedule comes back packed."""

    packed_frames = 0

    def dispatch(self, taxis, requests):
        schedule = super().dispatch(taxis, requests)
        if isinstance(schedule, PackedSingleSchedule):
            self.packed_frames += 1
        return schedule


def _run(sim_config, fleet, requests, dispatcher):
    return Simulator(dispatcher, ORACLE, sim_config).run(fleet, requests)


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


class TestShardedEngineEquivalence:
    def test_sharded_warm_run_identical_to_cold(self, workload):
        sim_config, fleet, requests = workload
        cold = _run(
            sim_config,
            fleet,
            requests,
            NSTDDispatcher(ORACLE, sim_config.dispatch, optimize_for="passenger"),
        )
        dispatcher = _PackedCountingDispatcher(
            ORACLE, sim_config.dispatch, optimize_for="passenger", warm_start=True
        )
        warm = _run(sim_config, fleet, requests, dispatcher)
        assert _observable(cold) == _observable(warm)
        perf = warm.perf_stats()
        assert perf["warm_frames"] > 0
        assert perf.get("warm_fallbacks", 0) == 0
        # Every warm-solved frame was executed from its packed schedule.
        assert dispatcher.packed_frames == perf["warm_frames"]
