"""RunCore's rows: every frame reads its requests and idle taxis as
gathers from run-long columns.

A request's row is its position in the arrival-sorted trace
(``RunCore.ordered``) and a taxi's its fleet row.  The queue is a mask
over request rows; ids, trips, pickups and zone keys are
:class:`~repro.simulation.core.RequestColumns` and taxi positions the
``agent_xy`` column.  These tests check, at every frame's gathers and
after every recorded frame and every restore, that what the rows read
equals what the objects say: the queue equals the admitted requests no
outcome resolved yet, and each gathered column is bit-equal to the value
derived from the request or taxi objects.  The runs cover streaming at
three epoch lengths with trace ids that do and do not ascend, warm batch
runs with expiries, a crash-resume and repositioning, and a stream ≡
batch run on a trace with an unbucketable pickup.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.types import PassengerRequest
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import ExperimentScale, build_workload, city_simulation_config
from repro.geometry import EuclideanDistance, Point
from repro.geometry.batch import as_point_array
from repro.geometry.spatial_index import grid_cells, pack_cell_keys
from repro.resilience import DurabilityConfig, DurabilityManager, resume_simulation
from repro.simulation import DriftToRecentDemand, Simulator
from repro.simulation.core import RunCore
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()
#: The zone edge a batch run's keys are checked at (a streaming run's
#: are checked at the edge its matcher froze).
BATCH_ZONE_KM = 2.0


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


def _live_queue(core: RunCore) -> list[PassengerRequest]:
    """The queue as the objects say: admitted, neither abandoned nor dispatched."""
    admitted = zip(core.ordered[: core.arrival_cursor], core.outcomes)
    return [r for r, o in admitted if not o.abandoned and o.dispatch_time_s is None]


def _assert_queue_and_fleet(core: RunCore) -> None:
    rows = core.queue_rows()
    assert rows.dtype == np.int64 and np.all(np.diff(rows) > 0)
    assert [core.ordered[row] for row in rows.tolist()] == _live_queue(core)
    assert not core.queued[: core.queue_head].any()
    expected = as_point_array([a.location for a in core.agent_list], check_finite=False)
    assert core.agent_xy.tobytes() == expected.tobytes()


def _assert_batch_gathers(core: RunCore, batch: list[PassengerRequest]) -> None:
    assert batch == _live_queue(core)
    rows = core.batch_rows
    columns = core.columns
    assert columns.ids[rows].tolist() == [r.request_id for r in batch]
    pickups = as_point_array([r.pickup for r in batch], check_finite=False)
    assert columns.pickup_xy[rows].tobytes() == pickups.tobytes()
    trips = np.array([ORACLE.distance(r.pickup, r.dropoff) for r in batch])
    assert columns.trips[rows].tobytes() == trips.tobytes()
    zone_km = next(iter(columns._zone_keys), BATCH_ZONE_KM)
    keys = pack_cell_keys(grid_cells(pickups, zone_km))
    assert columns.zone_keys(zone_km)[rows].tolist() == keys.tolist()


def _assert_idle_gather(core: RunCore, idle) -> None:
    expected = as_point_array([t.location for t in idle], check_finite=False)
    assert core.agent_xy[core.idle_rows].tobytes() == expected.tobytes()
    assert [core.agent_list[row].taxi_id for row in core.idle_rows.tolist()] == [
        t.taxi_id for t in idle
    ]


@pytest.fixture
def checked_frames(monkeypatch):
    """Check every frame's gathers, and the queue and fleet columns after
    every recorded frame and every restore; returns the checked frames'
    queue lengths, with ``-1`` for a restore."""
    seen: list[int] = []
    record_frame = RunCore.record_frame
    restore_state = RunCore.restore_state
    batch = RunCore.batch
    idle = RunCore.idle

    def checked_record(self, *args, **kwargs):
        stats = record_frame(self, *args, **kwargs)
        _assert_queue_and_fleet(self)
        seen.append(stats.queue_length)
        return stats

    def checked_restore(self, *args, **kwargs):
        restore_state(self, *args, **kwargs)
        _assert_queue_and_fleet(self)
        seen.append(-1)

    def checked_batch(self, rows):
        listed = batch(self, rows)
        _assert_batch_gathers(self, listed)
        return listed

    def checked_idle(self):
        listed = idle(self)
        _assert_idle_gather(self, listed)
        return listed

    monkeypatch.setattr(RunCore, "record_frame", checked_record)
    monkeypatch.setattr(RunCore, "restore_state", checked_restore)
    monkeypatch.setattr(RunCore, "batch", checked_batch)
    monkeypatch.setattr(RunCore, "idle", checked_idle)
    return seen


def _simulator(sim_config, durability=None, repositioning=None):
    dispatcher = NSTDDispatcher(ORACLE, sim_config.dispatch, warm_start=True)
    return Simulator(
        dispatcher, ORACLE, sim_config, durability=durability, repositioning=repositioning
    )


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

    def test_batch_frames_with_repositioning(self, workload, checked_frames):
        """Cruising idle taxis move between dispatches: the fleet column
        follows every relocation."""
        sim_config, fleet, requests = workload
        result = _simulator(sim_config, repositioning=DriftToRecentDemand(window=20)).run(
            fleet, requests
        )
        assert len(checked_frames) == result.frames_run
        driven = sum(s.driven_km for s in result.taxi_stats.values())
        assert driven > sum(a.total_drive_km for a in result.assignments)

    def test_batch_run_never_builds_the_columns(self, workload, monkeypatch):
        sim_config, fleet, requests = workload
        built: list[bool] = []
        result = RunCore.result

        def recording_result(self, *args, **kwargs):
            built.append(self.columns._pickup_xy is not None)
            built.append(bool(self.columns._zone_keys))
            return result(self, *args, **kwargs)

        monkeypatch.setattr(RunCore, "result", recording_result)
        _simulator(sim_config).run(fleet, requests)
        assert built == [False, False]


class TestUnbucketablePickup:
    """One request's pickup lies 1e12 km out, beyond the zone grid's
    packable range: the epochs that hold it take the
    ``unbucketable-coordinates`` plan and no depth sample, and the run
    still equals the batch run."""

    FAR = Point(1e12, 0.0)

    def _trace(self, requests):
        # Arrives half an hour in, after the first full plans, so the
        # matcher's coarse plans meet it too.
        far = replace(requests[len(requests) // 2], pickup=self.FAR)
        assert far.request_time_s > 1800.0
        return [far if r.request_id == far.request_id else r for r in requests], far

    def test_stream_equals_batch_and_skips_the_far_epochs(self, workload, monkeypatch):
        import repro.streaming.engine as engine_module
        import repro.streaming.matcher as matcher_module

        sim_config, fleet, requests = workload
        # Twenty minutes' patience keeps the far request queued past a
        # full replan as well as through coarse epochs.
        sim_config = replace(sim_config, passenger_patience_s=1200.0)
        requests, far = self._trace(requests)
        epochs: list[dict] = []
        batch = RunCore.batch

        def recording_batch(self, rows):
            listed = batch(self, rows)
            epochs.append({"far": any(r is far for r in listed)})
            return listed

        def recording(name, key):
            original = getattr(matcher_module, name)

            def wrapped(*args, **kwargs):
                plan = original(*args, **kwargs)
                epochs[-1][key] = plan.degenerate_reason
                return plan

            monkeypatch.setattr(matcher_module, name, wrapped)

        recording("plan_epoch_zones", "full")
        recording("coarse_epoch_plan", "coarse")
        depths = engine_module.zone_queue_depths

        def recording_depths(keys):
            try:
                sample = depths(keys)
            except ValueError:
                epochs[-1]["depths"] = None
                raise
            epochs[-1]["depths"] = sample
            return sample

        monkeypatch.setattr(RunCore, "batch", recording_batch)
        monkeypatch.setattr(engine_module, "zone_queue_depths", recording_depths)
        streamed = StreamingEngine(ORACLE, sim_config).run(fleet, requests)
        monkeypatch.undo()
        dispatcher = NSTDDispatcher(ORACLE, sim_config.dispatch)
        batched = Simulator(dispatcher, ORACLE, sim_config).run(fleet, requests)

        assert streamed.outcomes == batched.outcomes
        assert streamed.assignments == batched.assignments
        assert [replace(f, dispatch_ms=0.0) for f in streamed.frame_stats] == [
            replace(f, dispatch_ms=0.0) for f in batched.frame_stats
        ]
        far_epochs = [e for e in epochs if e["far"]]
        near_epochs = [e for e in epochs if not e["far"]]
        assert {"full", "coarse"} <= {key for e in far_epochs for key in e}
        for epoch in far_epochs:
            reason = epoch.get("full", epoch.get("coarse"))
            assert reason == "unbucketable-coordinates"
            assert epoch["depths"] is None
        assert near_epochs and all(e["depths"] is not None for e in near_epochs)
        assert streamed.dispatch_telemetry["zone_coarse_epochs"] > 0
