"""Engine-level durability and runtime-audit behaviour.

Five properties on a small city simulation: (1) installing the
journal/checkpoint subsystem changes nothing observable; (2) a run
interrupted mid-flight, before its first snapshot or just after any
snapshot, resumes from its artifacts to a bit-identical result — its
history rebuilt from the journal, field by field — with
journal-verified replay; (3) a journal whose digests or history rows
were tampered with makes the resume *fail loudly* instead of shipping a
silently different run; (4) snapshots carry only mutable state, so
their size does not grow with the run; (5) the stability auditor rides
along at zero divergences on honest runs, and when a warm frame is
deliberately corrupted it detects, heals cold, and records the event
while the final result stays bit-identical to an honest run.
"""

import json
import os
import warnings
import zlib
from dataclasses import astuple, replace
from functools import partial

import pytest

from repro.core.errors import ResumeError
from repro.dispatch.base import single_assignment
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import (
    ExperimentScale,
    build_workload,
    city_simulation_config,
    make_dispatcher,
)
from repro.geometry import EuclideanDistance
from repro.resilience import (
    DurabilityConfig,
    DurabilityManager,
    FaultInjector,
    ResiliencePolicy,
    StabilityAuditor,
    read_journal,
    resume_simulation,
    schedule_pairs,
)
from repro.resilience.journal import checksummed_json
from repro.simulation import Simulator
from repro.trace.profiles import nyc_profile

ORACLE = EuclideanDistance()

CHECKPOINT_EVERY = 16


def window_workload(hours):
    """A NYC trace window moved to start at t = 0 and simulated to the
    window's length, so every frame near a crash point carries history."""
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.01, seed=5, hours=hours)
    start_s, end_s = hours[0] * 3600.0, hours[1] * 3600.0
    sim_config = replace(
        city_simulation_config(profile.scaled(scale.factor)), horizon_s=end_s - start_s
    )
    fleet, requests = build_workload(profile, scale)
    requests = [replace(r, request_time_s=r.request_time_s - start_s) for r in requests]
    return sim_config, fleet, requests


@pytest.fixture(scope="module")
def workload():
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.01, seed=5, hours=(17.0, 18.0))
    sim_config = city_simulation_config(profile.scaled(scale.factor))
    fleet, requests = build_workload(profile, scale)
    return sim_config, fleet, requests


@pytest.fixture(scope="module")
def active_workload():
    """The ``workload`` hour moved to t = 0, so frames dispatch from the
    first snapshot on."""
    return window_workload((17.0, 18.0))


#: Keys of the run history, which lives in the journal, never in a snapshot.
HISTORY_KEYS = {"outcomes", "assignments", "frame_stats", "resilience", "audit"}


def make_simulator(
    sim_config,
    *,
    warm=True,
    durability=None,
    auditor=None,
    dispatcher=None,
    oracle=ORACLE,
    resilience=None,
):
    if dispatcher is None:
        dispatcher = NSTDDispatcher(oracle, sim_config.dispatch, warm_start=warm)
    return Simulator(
        dispatcher,
        oracle,
        sim_config,
        durability=durability,
        auditor=auditor,
        resilience=resilience,
    )


def faulted_simulator(sim_config, durability=None, *, warm=True):
    """NSTD-P under the ladder and a 1/2 auditor, with a seeded fault
    schedule.  Its first three armed calls fail (``fail_first_calls``),
    exhausting the primary's retries on the first dispatching frame, so
    the run absorbs faults and degrades a frame whatever the seed draws."""
    injector = FaultInjector(
        16,
        latency_rate=0.05,
        latency_s=40.0,
        error_rate=0.02,
        per_call_cost_s=0.01,
        fail_first_calls=3,
    )
    return make_simulator(
        sim_config,
        warm=warm,
        oracle=injector.wrap(ORACLE),
        durability=durability,
        auditor=StabilityAuditor(rate=0.5),
        resilience=ResiliencePolicy(budget_fraction=0.5).with_injector(injector),
    )


def std_p_simulator(sim_config, durability=None):
    """STD-P under the default ladder, as the experiment runners build it."""
    return make_simulator(
        sim_config,
        dispatcher=make_dispatcher("STD-P", ORACLE, sim_config.dispatch),
        durability=durability,
        resilience=ResiliencePolicy(),
    )


def observable(result):
    """Everything a run produced except wall-clock time: every outcome,
    assignment and taxi-total field, and the frame, resilience and audit
    series less their timing field."""
    return {
        "summary": result.summary(),
        "frames_run": result.frames_run,
        "outcomes": [astuple(o) for o in result.outcomes],
        "assignments": [astuple(a) for a in result.assignments],
        "taxi_stats": result.taxi_stats,
        "frame_stats": [replace(f, dispatch_ms=0.0) for f in result.frame_stats],
        "resilience": None if result.resilience is None else [
            replace(r, elapsed_s=0.0) for r in result.resilience.frames
        ],
        "audit": None if result.stability_audit is None else [
            replace(r, audit_ms=0.0) for r in result.stability_audit.frames
        ],
    }


def without_modes(result):
    """:func:`observable` less the audit records' solve mode, which a
    resumed warm run (restarting cold) or a cold run does not share."""
    seen = observable(result)
    return seen | {"audit": [replace(r, mode="") for r in seen["audit"]]}


class _Interrupt(RuntimeError):
    """Stands in for SIGKILL inside one process (the real-signal matrix
    lives in tests/integration/test_crash_recovery.py)."""


class InterruptingManager(DurabilityManager):
    def __init__(self, config, *, die_at_frame, phase="mid-frame"):
        super().__init__(config)
        self.die_at_frame = die_at_frame
        self.phase = phase

    def crash_point(self, frame, phase):
        if phase == self.phase and frame == self.die_at_frame:
            raise _Interrupt(frame)
        super().crash_point(frame, phase)


def durability_config(directory):
    return DurabilityConfig(directory, checkpoint_every_frames=CHECKPOINT_EVERY)


def interrupt(make, fleet, requests, directory, die_at, phase="mid-frame"):
    """Run ``make(durability=...)`` until it dies at frame ``die_at``."""
    manager = InterruptingManager(
        durability_config(directory), die_at_frame=die_at, phase=phase
    )
    with pytest.raises(_Interrupt):
        make(durability=manager).run(fleet, requests)
    return manager


def resume(make, fleet, requests, directory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return resume_simulation(
            make(durability=DurabilityManager(durability_config(directory))), fleet, requests
        )


def rewrite_frame_record(journal_path, frame, edit):
    """Apply ``edit`` to frame ``frame``'s journal record and re-checksum
    it, so only replay or cursor verification can catch the change."""
    lines = journal_path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == "frame" and record["frame"] == frame:
            del record["crc"]
            edit(record)
            lines[i] = checksummed_json(record)
    journal_path.write_text("\n".join(lines) + "\n")


class TestDurableRun:
    def test_durable_run_is_observably_identical(self, workload, tmp_path):
        sim_config, fleet, requests = workload
        plain = make_simulator(sim_config).run(fleet, requests)
        manager = DurabilityManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY)
        )
        durable = make_simulator(sim_config, durability=manager).run(fleet, requests)
        assert observable(durable) == observable(plain)
        # The journal is sealed and a finished snapshot survives.
        from repro.resilience import read_journal

        contents = read_journal(manager.journal_path)
        assert contents.end is not None
        assert contents.end["frames"] == durable.frames_run
        assert manager.store.latest_valid()["finished"] is True

    def test_fsynced_journal_appends_change_nothing_but_durability(
        self, active_workload, tmp_path, monkeypatch
    ):
        # dispatch_ms is the one wall-clock value a journal row carries;
        # a frozen telemetry clock makes the journal bytes comparable.
        monkeypatch.setattr("repro.simulation.engine.telemetry_clock", lambda: 0.0)
        fsyncs = []

        def counting_fsync(fd):
            fsyncs.append(fd)
            os.fsync(fd)

        monkeypatch.setattr("repro.resilience.journal.fsync", counting_fsync)
        sim_config, fleet, requests = active_workload
        make = partial(make_simulator, sim_config)

        def config(directory, fsync):
            return DurabilityConfig(
                directory, checkpoint_every_frames=CHECKPOINT_EVERY, fsync_journal_appends=fsync
            )

        results, journals, synced = [], [], []
        for fsync in (False, True):
            manager = DurabilityManager(config(tmp_path / f"fsync-{fsync}", fsync))
            fsyncs.clear()
            results.append(make(durability=manager).run(fleet, requests))
            journals.append(manager.journal_path.read_bytes())
            synced.append(len(fsyncs))
        assert observable(results[1]) == observable(results[0])
        assert journals[1] == journals[0]
        # Every append is fsynced: the header, each frame and the end.
        assert synced[1] >= results[1].frames_run + 2 > synced[0]
        # A run killed with fsynced appends resumes from its artifacts.
        crashed = config(tmp_path / "crashed", True)
        with pytest.raises(_Interrupt):
            make(durability=InterruptingManager(crashed, die_at_frame=40)).run(fleet, requests)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = resume_simulation(
                make(durability=DurabilityManager(crashed)), fleet, requests
            )
        assert observable(resumed) == observable(results[0])
        assert resumed.perf_stats()["replay_frames_verified"] == 8

    def test_interrupted_run_resumes_bit_identical(self, active_workload, tmp_path):
        sim_config, fleet, requests = active_workload
        reference = make_simulator(sim_config).run(fleet, requests)
        die_at = 40
        manager = InterruptingManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY),
            die_at_frame=die_at,
        )
        with pytest.raises(_Interrupt):
            make_simulator(sim_config, durability=manager).run(fleet, requests)
        resumed_manager = DurabilityManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY)
        )
        simulator = make_simulator(sim_config, durability=resumed_manager)
        resumed = resume_simulation(simulator, fleet, requests)
        assert observable(resumed) == observable(reference)
        # Snapshot at 31, journal frontier 39: 8 frames replay-verified.
        replayed = resumed.perf_stats()["replay_frames_verified"]
        assert replayed == die_at - CHECKPOINT_EVERY * (die_at // CHECKPOINT_EVERY)

    def test_crash_before_first_snapshot_rebuilds_history_from_journal_alone(
        self, active_workload, tmp_path
    ):
        # No snapshot exists yet: the resume restarts at frame 0 and every
        # journaled frame is replayed and verified.
        sim_config, fleet, requests = active_workload
        make = partial(make_simulator, sim_config)
        reference = make().run(fleet, requests)
        manager = interrupt(make, fleet, requests, tmp_path, die_at=7, phase="boundary")
        assert manager.store.snapshot_paths() == []
        resumed = resume(make, fleet, requests, tmp_path)
        assert observable(resumed) == observable(reference)
        assert resumed.perf_stats()["replay_frames_verified"] == 8

    @pytest.mark.parametrize("snapshot_frame", [15, 31, 47])
    def test_crash_just_after_a_snapshot_resumes_bit_identical(
        self, active_workload, tmp_path, snapshot_frame
    ):
        # The snapshot is the journal frontier: the whole history comes
        # from the journal prefix and nothing replays.
        sim_config, fleet, requests = active_workload
        make = partial(make_simulator, sim_config)
        reference = make().run(fleet, requests)
        interrupt(make, fleet, requests, tmp_path, die_at=snapshot_frame, phase="boundary")
        resumed = resume(make, fleet, requests, tmp_path)
        assert observable(resumed) == observable(reference)
        assert resumed.perf_stats()["replay_frames_verified"] == 0

    @pytest.mark.parametrize(("die_at", "phase"), [(41, "mid-frame"), (33, "boundary")])
    def test_std_p_crash_at_a_dispatching_frame_resumes_bit_identical(
        self, active_workload, tmp_path, die_at, phase
    ):
        # STD-P carries its group memo, family and settled market across
        # frames; the resume restarts them cold and must land on the
        # same schedule.  Both crash frames dispatch.
        sim_config, fleet, requests = active_workload
        make = partial(std_p_simulator, sim_config)
        reference = make().run(fleet, requests)
        assert reference.frame_stats[die_at].dispatched_requests > 0
        assert reference.dispatch_telemetry["warm_frames"] > 0
        interrupt(make, fleet, requests, tmp_path, die_at=die_at, phase=phase)
        resumed = resume(make, fleet, requests, tmp_path)
        assert observable(resumed) == observable(reference)
        assert resumed.dispatch_telemetry["warm_fallback_run-start"] == 2

    @pytest.mark.parametrize(("die_at", "phase"), [(57, "mid-frame"), (63, "boundary")])
    def test_std_p_mixed_seat_fleet_resumes_bit_identical(
        self, active_workload, tmp_path, die_at, phase
    ):
        # Two taxis in three seat two, so the frame's seat bound moves
        # between 2 and 4.  The uninterrupted run's memo has seen groups
        # rejected at one bound; the resumed one starts empty.  A seat
        # verdict that outlived its bound would pack differently.
        sim_config, fleet, requests = active_workload
        fleet = [replace(t, seats=2 if t.taxi_id % 3 else 4) for t in fleet]
        make = partial(std_p_simulator, sim_config)
        reference = make().run(fleet, requests)
        assert reference.dispatch_telemetry["warm_fallback_max-passengers"] > 0
        interrupt(make, fleet, requests, tmp_path, die_at=die_at, phase=phase)
        resumed = resume(make, fleet, requests, tmp_path)
        assert observable(resumed) == observable(reference)

    def test_ladder_auditor_and_fault_injector_resume_bit_identical(
        self, active_workload, tmp_path
    ):
        # Every history row kind at once: degraded ladder frames, audit
        # records and a seeded fault schedule that must line up across
        # the crash, under warm dispatch, whose resumed frames restart
        # cold and make more oracle calls than the frames they replay.
        sim_config, fleet, requests = active_workload
        make = partial(faulted_simulator, sim_config)
        reference = make().run(fleet, requests)
        assert reference.resilience.degraded_frames
        assert reference.resilience.faults_absorbed >= 3
        assert reference.stability_audit.frames
        assert reference.dispatch_telemetry["warm_frames"] > 0
        # Faults do not depend on the solver's calls: cold dispatch
        # gives the same run, but for the audit records' solve mode.
        cold = faulted_simulator(sim_config, warm=False).run(fleet, requests)

        assert without_modes(cold) == without_modes(reference)
        interrupt(make, fleet, requests, tmp_path, die_at=40)
        resumed = resume(make, fleet, requests, tmp_path)
        assert without_modes(resumed) == without_modes(reference)
        assert resumed.perf_stats()["replay_frames_verified"] == 8

    def test_fault_injector_resumes_bit_identical_from_a_boundary_snapshot(
        self, active_workload, tmp_path
    ):
        # No frame is replayed, so the restored counters and virtual
        # clock alone must carry the uninterrupted run's fault schedule
        # and budgets across the crash.  The snapshot at frame 63 holds
        # queued requests; the resumed run measures their trips again,
        # but at run start, disarmed.
        sim_config, fleet, requests = active_workload
        make = partial(faulted_simulator, sim_config)
        reference = make().run(fleet, requests)
        interrupt(make, fleet, requests, tmp_path, die_at=63, phase="boundary")
        resumed = resume(make, fleet, requests, tmp_path)
        assert without_modes(resumed) == without_modes(reference)

    def test_tampered_journal_digest_fails_the_resume_loudly(self, workload, tmp_path):
        sim_config, fleet, requests = workload
        die_at = 40
        manager = InterruptingManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY),
            die_at_frame=die_at,
        )
        with pytest.raises(_Interrupt):
            make_simulator(sim_config, durability=manager).run(fleet, requests)
        # Rewrite a post-snapshot frame record with a wrong pairs digest,
        # keeping the line checksum valid: integrity passes, replay
        # verification must still catch the divergence.
        lines = manager.journal_path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "frame" and record["frame"] == die_at - 3:
                del record["crc"]
                record["pairs_crc"] = (record["pairs_crc"] + 1) % 2**32
                canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
                record["crc"] = zlib.crc32(canonical.encode())
                lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        manager.journal_path.write_text("\n".join(lines) + "\n")
        resumed_manager = DurabilityManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY)
        )
        simulator = make_simulator(sim_config, durability=resumed_manager)
        with pytest.raises(ResumeError, match="diverged from the journal"):
            resume_simulation(simulator, fleet, requests)

    def test_tampered_fault_fingerprint_fails_the_resume_loudly(
        self, active_workload, tmp_path
    ):
        # Rewrite a post-snapshot record's fault draws, keeping the line
        # checksum valid: the replayed frame draws the honest schedule,
        # so replay verification must catch the edit.
        sim_config, fleet, requests = active_workload
        make = partial(faulted_simulator, sim_config)
        # Frames 32–43 replay from the snapshot at 31; frame 41 dispatches.
        manager = interrupt(make, fleet, requests, tmp_path, die_at=44)

        def forge(record):
            record["rng"] = "00000000"

        # The last replayed frame that dispatched, so it holds draws.
        replayed = read_journal(manager.journal_path).frames[CHECKPOINT_EVERY * 2:]
        frame = max(digest.frame for digest in replayed if digest.rng)
        rewrite_frame_record(manager.journal_path, frame, forge)
        with pytest.raises(ResumeError, match="diverged from the journal"):
            resume(make, fleet, requests, tmp_path)

    def test_completed_journal_refuses_resume(self, workload, tmp_path):
        sim_config, fleet, requests = workload
        manager = DurabilityManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY)
        )
        make_simulator(sim_config, durability=manager).run(fleet, requests)
        resumed_manager = DurabilityManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY)
        )
        simulator = make_simulator(sim_config, durability=resumed_manager)
        with pytest.raises(ResumeError, match="completed run"):
            resume_simulation(simulator, fleet, requests)
        # fresh_ok turns "nothing to resume" (empty dir) into a fresh
        # run, but never overrides a completed journal.
        with pytest.raises(ResumeError, match="completed run"):
            resume_simulation(simulator, fleet, requests, fresh_ok=True)


class TestHistoryCursor:
    """The journal prefix a resume rebuilds history from must be exactly
    the history the snapshot presumes; anything else is refused."""

    @staticmethod
    def interrupted(workload, tmp_path):
        sim_config, fleet, requests = workload
        make = partial(make_simulator, sim_config)
        manager = interrupt(make, fleet, requests, tmp_path, die_at=40)
        return make, manager

    @staticmethod
    def busiest_prefix_frame(manager):
        contents = read_journal(manager.journal_path)
        digests, rows = contents.prefix(CHECKPOINT_EVERY * 2 - 1)
        best = max(range(len(rows)), key=lambda i: len(rows[i]["assignments"]))
        assert rows[best]["assignments"]
        return digests[best].frame

    @pytest.mark.parametrize("rows_key", ["assignments", "outcomes"])
    def test_prefix_row_count_mismatch_is_refused(self, active_workload, tmp_path, rows_key):
        _, fleet, requests = active_workload
        make, manager = self.interrupted(active_workload, tmp_path)
        frame = self.busiest_prefix_frame(manager)
        rewrite_frame_record(
            manager.journal_path, frame, lambda record: record["rows"][rows_key].pop()
        )
        with pytest.raises(ResumeError, match="history cursor"):
            resume(make, fleet, requests, tmp_path)

    def test_prefix_cum_crc_mismatch_is_refused(self, active_workload, tmp_path):
        _, fleet, requests = active_workload
        make, manager = self.interrupted(active_workload, tmp_path)

        def bump(record):
            record["cum_crc"] = (record["cum_crc"] + 1) % 2**32

        rewrite_frame_record(manager.journal_path, CHECKPOINT_EVERY * 2 - 1, bump)
        with pytest.raises(ResumeError, match="history cursor"):
            resume(make, fleet, requests, tmp_path)


class TestSnapshotContents:
    def test_snapshot_holds_no_history(self, active_workload, tmp_path):
        sim_config, fleet, requests = active_workload
        manager = DurabilityManager(durability_config(tmp_path))
        make_simulator(
            sim_config,
            durability=manager,
            auditor=StabilityAuditor(rate=0.5),
            resilience=ResiliencePolicy(),
        ).run(fleet, requests)
        paths = manager.store.snapshot_paths()
        assert paths
        for path in paths:
            state = json.loads(path.read_text())["state"]
            assert not HISTORY_KEYS & set(state)
            assert "trips" not in state  # trace-derived: measured at run start
            assert set(state["history"]) == {"frames", "assignments", "outcomes", "cum_crc"}

    def test_snapshot_size_does_not_grow_with_the_run(self, tmp_path):
        # The same fleet over a 2 h and an 8 h trace: four times the
        # frames and history, the same snapshot.
        sizes, fleets = [], []
        for hours in ((12.0, 14.0), (12.0, 20.0)):
            sim_config, fleet, requests = window_workload(hours)
            manager = DurabilityManager(durability_config(tmp_path / f"{hours[1]:g}h"))
            result = make_simulator(sim_config, durability=manager).run(fleet, requests)
            assert result.assignments
            sizes.append(manager.store.snapshot_paths()[-1].stat().st_size)
            fleets.append([t.taxi_id for t in fleet])
        assert fleets[0] == fleets[1]
        assert max(sizes) <= 1.5 * min(sizes)


class CorruptingNSTD(NSTDDispatcher):
    """Ships one deliberately destabilized warm frame, then behaves.

    The corruption swaps the taxi of the first matched request with the
    matched taxi farthest from it — the abandoned near pair is all but
    guaranteed blocking, which is exactly the corruption species the
    auditor exists to catch.
    """

    corruptions = 0

    def dispatch(self, taxis, requests):
        schedule = super().dispatch(taxis, requests)
        if self.corruptions or self.last_frame_mode != "warm":
            return schedule
        pairs = schedule_pairs(schedule, taxis, requests)
        if pairs is None or len(pairs) < 2:
            return schedule
        by_taxi = {t.taxi_id: t for t in taxis}
        by_request = {r.request_id: r for r in requests}
        first_rid = next(iter(pairs))
        anchor = by_request[first_rid].pickup
        far_rid = max(
            (rid for rid in pairs if rid != first_rid),
            key=lambda rid: anchor.distance_to(by_taxi[pairs[rid]].location),
        )
        pairs[first_rid], pairs[far_rid] = pairs[far_rid], pairs[first_rid]
        self.corruptions = 1
        from repro.core.types import DispatchSchedule

        corrupted = DispatchSchedule()
        for rid, tid in pairs.items():
            corrupted.add(single_assignment(by_taxi[tid], by_request[rid]))
        return corrupted


class TestEngineAudit:
    def test_honest_run_audits_clean(self, workload):
        sim_config, fleet, requests = workload
        auditor = StabilityAuditor(rate=1.0)
        result = make_simulator(sim_config, auditor=auditor).run(fleet, requests)
        perf = result.perf_stats()
        assert perf["frames_audited"] > 0
        assert perf["audit_divergences"] == 0
        assert perf["audit_healed"] == 0
        assert perf["audit_overhead_fraction"] >= 0.0
        # Audit telemetry never exists when no auditor is installed.
        plain = make_simulator(sim_config).run(fleet, requests)
        assert "frames_audited" not in plain.perf_stats()

    def test_corrupted_warm_frame_is_detected_healed_and_recorded(self, workload):
        sim_config, fleet, requests = workload
        honest = make_simulator(sim_config).run(fleet, requests)
        dispatcher = CorruptingNSTD(ORACLE, sim_config.dispatch, warm_start=True)
        auditor = StabilityAuditor(rate=1.0)
        result = make_simulator(
            sim_config, auditor=auditor, dispatcher=dispatcher
        ).run(fleet, requests)
        assert dispatcher.corruptions == 1
        divergences = result.stability_audit.divergences
        assert len(divergences) == 1
        record = divergences[0]
        assert record.diverged and record.healed
        assert record.blocking_pairs != 0
        perf = result.perf_stats()
        assert perf["audit_divergences"] == 1
        assert perf["audit_healed"] == 1
        # Healing recomputed the frame cold after dropping warm state...
        assert result.dispatch_telemetry.get("warm_invalidation_audit-divergence", 0) == 1
        # ...so the corruption never reached taxi motion: observables
        # match an honest run exactly (which has no audit records).
        assert observable(result) | {"audit": None} == observable(honest)

    def test_audit_sampling_survives_resume(self, workload, tmp_path):
        # The sampler is hash-based on (seed, frame index): a resumed run
        # audits exactly the frames the uninterrupted one audits.
        sim_config, fleet, requests = workload
        auditor = StabilityAuditor(rate=0.5)
        uninterrupted = make_simulator(sim_config, auditor=auditor).run(fleet, requests)
        audited_frames = [r.frame for r in uninterrupted.stability_audit.frames]
        manager = InterruptingManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY),
            die_at_frame=40,
        )
        with pytest.raises(_Interrupt):
            make_simulator(
                sim_config, durability=manager, auditor=StabilityAuditor(rate=0.5)
            ).run(fleet, requests)
        resumed_manager = DurabilityManager(
            DurabilityConfig(tmp_path, checkpoint_every_frames=CHECKPOINT_EVERY)
        )
        simulator = make_simulator(
            sim_config, durability=resumed_manager, auditor=StabilityAuditor(rate=0.5)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = resume_simulation(simulator, fleet, requests)
        assert [r.frame for r in resumed.stability_audit.frames] == audited_frames
        assert observable(resumed) == observable(uninterrupted)

    def test_resumed_warm_run_audits_the_frames_the_uninterrupted_run_audits(
        self, active_workload, tmp_path
    ):
        # The crash at 70 resumes from the snapshot after frame 63, so
        # frame 64 dispatches in both runs: warm in the uninterrupted
        # one, cold in the resumed one, whose warm state restarts cold.
        # The sampler (seed 0, rate 1/2) picks it; both runs audit it.
        sim_config, fleet, requests = active_workload

        def make(durability=None):
            auditor = StabilityAuditor(rate=0.5)
            return make_simulator(sim_config, durability=durability, auditor=auditor)

        reference = make().run(fleet, requests)
        assert reference.frame_stats[64].dispatched_requests > 0
        interrupt(make, fleet, requests, tmp_path, die_at=70)
        resumed = resume(make, fleet, requests, tmp_path)
        modes = {r.frame: r.mode for r in reference.stability_audit.frames}
        resumed_modes = {r.frame: r.mode for r in resumed.stability_audit.frames}
        assert modes[64] == "warm" and resumed_modes[64] == "cold"
        assert resumed_modes.keys() == modes.keys()

        assert without_modes(resumed) == without_modes(reference)
