"""RunCore's request columns: the queue read as rows of the trace.

:meth:`~repro.simulation.core.RunCore.queue_columns` gathers the queued
requests' pickups and ids from run-long trace-order columns instead of
converting the queue's :class:`~repro.geometry.Point` objects.  These
tests check, after every frame of streaming and batch runs (expiries, a
crash-resume and non-ascending trace ids included), that the gather is
bit-equal to the conversion it replaces and in queue order, and that a
batch run, which never reads the columns, never builds them.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import ExperimentScale, build_workload, city_simulation_config
from repro.geometry import EuclideanDistance
from repro.geometry.batch import as_point_array
from repro.resilience import DurabilityConfig, DurabilityManager, resume_simulation
from repro.simulation import Simulator
from repro.simulation.core import RunCore
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()


@pytest.fixture(scope="module")
def workload():
    """Two NYC evening hours moved to t = 0, with a short patience so
    frames expire requests from the queue's head."""
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.01, seed=5, hours=(17.0, 19.0))
    start_s, end_s = 17.0 * 3600.0, 19.0 * 3600.0
    sim_config = replace(
        city_simulation_config(profile.scaled(scale.factor)),
        horizon_s=end_s - start_s,
        passenger_patience_s=600.0,
    )
    fleet, requests = build_workload(profile, scale)
    requests = [replace(r, request_time_s=r.request_time_s - start_s) for r in requests]
    return sim_config, fleet, requests


def _permuted_ids(requests):
    """The same trace with ids shuffled, so trace-order ids do not ascend."""
    ids = np.random.default_rng(3).permutation(len(requests)) + 1000
    return [replace(r, request_id=int(i)) for r, i in zip(requests, ids.tolist())]


def _assert_columns(core: RunCore) -> None:
    batch = list(core.queue.values())
    pickups, ids = core.queue_columns()
    expected = as_point_array([r.pickup for r in batch], check_finite=False)
    assert pickups.dtype == np.float64 and pickups.shape == expected.shape
    assert pickups.tobytes() == expected.tobytes()
    assert ids.dtype == np.int64
    assert ids.tolist() == [r.request_id for r in batch]


@pytest.fixture
def checked_frames(monkeypatch):
    """Check the columns after every recorded frame and every restore;
    returns the checked frames' queue lengths, with ``-1`` for a restore."""
    seen: list[int] = []
    record_frame = RunCore.record_frame
    restore_state = RunCore.restore_state

    def checked_record(self, *args, **kwargs):
        stats = record_frame(self, *args, **kwargs)
        _assert_columns(self)
        seen.append(len(self.queue))
        return stats

    def checked_restore(self, *args, **kwargs):
        restore_state(self, *args, **kwargs)
        _assert_columns(self)
        seen.append(-1)

    monkeypatch.setattr(RunCore, "record_frame", checked_record)
    monkeypatch.setattr(RunCore, "restore_state", checked_restore)
    return seen


def _simulator(sim_config, durability=None):
    dispatcher = NSTDDispatcher(ORACLE, sim_config.dispatch, warm_start=True)
    return Simulator(dispatcher, ORACLE, sim_config, durability=durability)


class TestQueueColumns:
    @pytest.mark.parametrize("epoch_s", [60.0, 30.0, 15.0])
    @pytest.mark.parametrize("permute", [False, True], ids=["trace-ids", "permuted-ids"])
    def test_streaming_epochs_read_the_queue(self, workload, checked_frames, epoch_s, permute):
        sim_config, fleet, requests = workload
        if permute:
            requests = _permuted_ids(requests)
        config = replace(sim_config, frame_length_s=epoch_s)
        result = StreamingEngine(ORACLE, config).run(fleet, requests)
        assert len(checked_frames) == result.frames_run and -1 not in checked_frames
        assert max(checked_frames) > 0
        assert sum(f.abandoned for f in result.frame_stats) > 0

    def test_batch_frames_with_expiries_and_a_resume(self, workload, checked_frames, tmp_path):
        sim_config, fleet, requests = workload

        class Crash(RuntimeError):
            pass

        class CrashingManager(DurabilityManager):
            def crash_point(self, frame, phase):
                if frame == 50 and phase == "mid-frame":
                    raise Crash(frame)
                super().crash_point(frame, phase)

        config = DurabilityConfig(tmp_path, checkpoint_every_frames=16)
        with pytest.raises(Crash):
            _simulator(sim_config, CrashingManager(config)).run(fleet, requests)
        resumed = resume_simulation(
            _simulator(sim_config, DurabilityManager(config)), fleet, requests
        )
        reference = _simulator(sim_config).run(fleet, requests)
        assert [o.taxi_id for o in resumed.outcomes] == [o.taxi_id for o in reference.outcomes]
        assert sum(f.abandoned for f in reference.frame_stats) > 0
        assert checked_frames.count(-1) == 1
        assert max(checked_frames) > 0

    def test_batch_run_never_builds_the_columns(self, workload, monkeypatch):
        sim_config, fleet, requests = workload
        built: list[bool] = []
        result = RunCore.result

        def recording_result(self, *args, **kwargs):
            built.append(self._request_columns is not None)
            return result(self, *args, **kwargs)

        monkeypatch.setattr(RunCore, "result", recording_result)
        _simulator(sim_config).run(fleet, requests)
        assert built == [False]
