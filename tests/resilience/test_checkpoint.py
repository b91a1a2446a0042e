"""Snapshot store semantics: atomicity, validation, pruning, refusal.

The store's contract mirrors the journal's asymmetry: a torn or
checksum-damaged snapshot is *skipped with a warning* (older snapshots
exist to absorb exactly that), while schema skew is a typed refusal —
silently falling back to a much older frame would masquerade as a
healthy resume.
"""

import json

import pytest

from repro.core.errors import CheckpointSchemaError, ResumeError
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    DurabilityConfig,
    DurabilityManager,
)


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(tmp_path, keep=3)


def state(frame):
    return {"frame_marker": frame, "floats": [0.1 + frame, 2.0 / 3.0]}


class TestStore:
    def test_round_trip_preserves_floats_bitwise(self, store):
        store.write(7, {"state": state(7)})
        loaded = store.latest_valid()
        assert loaded["frame"] == 7
        assert loaded["schema"] == CHECKPOINT_SCHEMA
        # JSON floats round-trip via repr: bit equality, not approximate.
        assert loaded["state"] == state(7)
        assert loaded["state"]["floats"][1] == 2.0 / 3.0

    def test_latest_valid_picks_newest(self, store):
        for frame in (3, 11, 19):
            store.write(frame, {"state": state(frame)})
        assert store.latest_valid()["frame"] == 19

    def test_prune_keeps_newest_k(self, store):
        for frame in range(6):
            store.write(frame, {"state": state(frame)})
        kept = [p.name for p in store.snapshot_paths()]
        assert kept == ["snap-00000003.json", "snap-00000004.json", "snap-00000005.json"]

    def test_prune_sweeps_torn_temporaries(self, store, tmp_path):
        torn = tmp_path / "snap-00000002.json.tmp"
        torn.write_text('{"frame":2,"fin')
        store.write(3, {"state": state(3)})
        assert not torn.exists()
        assert [p.name for p in store.snapshot_paths()] == ["snap-00000003.json"]

    def test_snapshot_is_canonical_json_with_trailing_checksum(self, store):
        path = store.write(6, {"state": state(6)})
        text = path.read_text()
        body = json.loads(text)
        claimed = body.pop("crc")
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert text == f'{canonical[:-1]},"crc":{claimed}}}'
        assert CHECKPOINT_SCHEMA == "repro-checkpoint/6"

    def test_damaged_snapshot_is_skipped_with_warning(self, store):
        store.write(1, {"state": state(1)})
        newest = store.write(2, {"state": state(2)})
        newest.write_text(newest.read_text()[:-25])  # tear the newest
        with pytest.warns(RuntimeWarning, match="skipping invalid snapshot"):
            loaded = store.latest_valid()
        assert loaded["frame"] == 1  # older sibling absorbs the damage

    def test_flipped_byte_fails_checksum(self, store):
        path = store.write(4, {"state": state(4)})
        body = json.loads(path.read_text())
        body["state"]["frame_marker"] = 999  # edit without re-checksumming
        path.write_text(json.dumps(body, sort_keys=True, separators=(",", ":")))
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert store.latest_valid() is None

    def test_schema_skew_is_a_hard_refusal(self, store):
        import zlib

        path = store.write(5, {"state": state(5)})
        body = json.loads(path.read_text())
        del body["crc"]
        body["schema"] = "repro-checkpoint/99"
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["crc"] = zlib.crc32(canonical.encode())  # integrity intact
        path.write_text(json.dumps(body, sort_keys=True, separators=(",", ":")))
        with pytest.raises(CheckpointSchemaError, match="repro-checkpoint/99"):
            store.latest_valid()

    def test_empty_directory_has_no_snapshot(self, store):
        assert store.latest_valid() is None
        assert store.snapshot_paths() == []


class TestConfig:
    def test_rejects_nonpositive_cadence_and_keep(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every_frames"):
            DurabilityConfig(tmp_path, checkpoint_every_frames=0)
        with pytest.raises(ValueError, match="keep"):
            DurabilityConfig(tmp_path, keep=0)

    def test_directory_is_coerced_to_path(self, tmp_path):
        config = DurabilityConfig(str(tmp_path / "sub"))
        assert config.directory == tmp_path / "sub"


class TestManagerGuards:
    def test_resuming_without_prepare_is_refused(self, tmp_path):
        manager = DurabilityManager(DurabilityConfig(tmp_path))
        with pytest.raises(ResumeError, match="prepare_resume"):
            manager.begin_run({"dispatcher": "NSTD-P"}, resuming=True)

    def test_fresh_run_replaces_stale_artifacts(self, tmp_path):
        manager = DurabilityManager(DurabilityConfig(tmp_path))
        manager.store.write(9, {"state": state(9)})
        # A snapshot temporary torn by a crash mid-write.
        torn = tmp_path / "snap-00000010.json.tmp"
        torn.write_text('{"frame":10,"fin')
        manager.journal_path.write_text("stale\n")
        manager.begin_run({"dispatcher": "NSTD-P"}, resuming=False)
        assert manager.store.snapshot_paths() == []
        assert not torn.exists()
        from repro.resilience import read_journal

        assert read_journal(manager.journal_path).header["dispatcher"] == "NSTD-P"
