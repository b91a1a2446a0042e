"""Each trip is measured once per run, at run start, never inside a frame.

A request's trip ``D(r^s, r^d)`` is a constant of the trace, so
:class:`~repro.simulation.core.RunCore` measures every trip of the
trace in one exact ``paired`` call when the run starts, and frames only
read that table.  These tests watch the oracle through a counting proxy
and order its calls against the frame boundaries: cold and warm batch
NSTD-P and the streaming engine each make exactly one trip measurement
(a ``paired`` call whose targets are dropoffs), before their first
frame; a crash-resumed warm run does the same at its own start.  A
trace the exact kernels reject fails there too, before any frame.
"""

from dataclasses import replace

import pytest

from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import ExperimentScale, build_workload, city_simulation_config
from repro.geometry import EuclideanDistance, Point
from repro.resilience import DurabilityConfig, DurabilityManager, resume_simulation
from repro.simulation import FrameDistanceCache, Simulator
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile
from tests.support import CountingOracle

FRAME = "frame"


@pytest.fixture(scope="module")
def workload():
    """One NYC evening hour moved to t = 0."""
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.01, seed=5, hours=(17.0, 18.0))
    start_s = 17.0 * 3600.0
    sim_config = replace(
        city_simulation_config(profile.scaled(scale.factor)), horizon_s=3600.0
    )
    fleet, requests = build_workload(profile, scale)
    requests = [replace(r, request_time_s=r.request_time_s - start_s) for r in requests]
    return sim_config, fleet, requests


@pytest.fixture
def oracle(monkeypatch):
    """A counting Euclidean oracle whose event log also marks every
    frame boundary the run crosses."""
    counting = CountingOracle(EuclideanDistance())
    begin_frame = FrameDistanceCache.begin_frame

    def marked(self):
        counting.events.append(FRAME)
        begin_frame(self)

    monkeypatch.setattr(FrameDistanceCache, "begin_frame", marked)
    return counting


def _batch(oracle, sim_config, *, warm, durability=None):
    dispatcher = NSTDDispatcher(oracle, sim_config.dispatch, warm_start=warm)
    return Simulator(dispatcher, oracle, sim_config, durability=durability)


def _frame_positions(events):
    return [index for index, event in enumerate(events) if isinstance(event, str)]


def _trip_measurements(events, requests):
    """Positions in ``events`` of the ``paired`` calls whose targets are
    all dropoffs of ``requests``, with how many trips each measured."""
    dropoffs = {(r.dropoff.x, r.dropoff.y) for r in requests}
    return [
        (index, len(event))
        for index, event in enumerate(events)
        if not isinstance(event, str)
        and {tuple(row) for row in event.tolist()} <= dropoffs
    ]


def _assert_one_measurement_before_the_frames(events, requests):
    frames = _frame_positions(events)
    assert frames
    assert _trip_measurements(events, requests) == [(0, len(requests))]
    assert frames[0] > 0


@pytest.mark.parametrize("engine", ["cold", "warm", "streaming"])
def test_each_trip_is_measured_once_before_the_first_frame(workload, oracle, engine):
    sim_config, fleet, requests = workload
    if engine == "streaming":
        result = StreamingEngine(oracle, sim_config).run(fleet, requests)
    else:
        result = _batch(oracle, sim_config, warm=engine == "warm").run(fleet, requests)
    assert result.served
    if engine == "warm":
        assert result.dispatch_telemetry["warm_frames"] > 0
    _assert_one_measurement_before_the_frames(oracle.events, requests)


def test_crash_resumed_warm_run_measures_no_trip_inside_a_frame(workload, oracle, tmp_path):
    sim_config, fleet, requests = workload

    class Crash(RuntimeError):
        pass

    class CrashingManager(DurabilityManager):
        def crash_point(self, frame, phase):
            if frame == 30 and phase == "mid-frame":
                raise Crash(frame)
            super().crash_point(frame, phase)

    config = DurabilityConfig(tmp_path, checkpoint_every_frames=8)
    with pytest.raises(Crash):
        _batch(oracle, sim_config, warm=True, durability=CrashingManager(config)).run(
            fleet, requests
        )
    oracle.events.clear()
    resumed = resume_simulation(
        _batch(oracle, sim_config, warm=True, durability=DurabilityManager(config)),
        fleet,
        requests,
    )
    assert resumed.perf_stats()["replay_frames_verified"] > 0
    _assert_one_measurement_before_the_frames(oracle.events, requests)


@pytest.mark.parametrize("engine", ["batch", "streaming"])
def test_non_finite_dropoff_fails_at_run_start(workload, oracle, engine):
    sim_config, fleet, requests = workload
    broken = list(requests)
    middle = len(broken) // 2
    broken[middle] = replace(broken[middle], dropoff=Point(float("nan"), 0.0))
    runner = (
        StreamingEngine(oracle, sim_config)
        if engine == "streaming"
        else _batch(oracle, sim_config, warm=True)
    )
    with pytest.raises(ValueError, match="non-finite coordinate"):
        runner.run(fleet, broken)
    assert not _frame_positions(oracle.events)
