"""Journal failure semantics: the asymmetry is the contract.

A torn final line is the expected SIGKILL signature and is dropped with
a warning; a damaged line anywhere else is corruption and a typed hard
failure; an unknown schema version is a typed refusal.  These tests
damage journals byte-by-byte and assert each case lands in the right
bucket — a corrupt journal must never be silently replayed.
"""

import warnings

import pytest

from repro.core.errors import JournalCorruptionError, JournalSchemaError
from repro.resilience import (
    JOURNAL_SCHEMA,
    FrameDigest,
    JournalWriter,
    frame_pairs_crc,
    read_journal,
)
from repro.resilience.journal import history_cursor


def digest(frame, pairs, *, cum=0):
    return FrameDigest(
        frame=frame,
        time_s=frame * 30.0,
        queue=3,
        idle=5,
        dispatched=len(pairs),
        abandoned=0,
        pairs_crc=frame_pairs_crc(pairs),
        cum_crc=frame_pairs_crc(pairs, seed=cum),
        rng=f"{frame}:0:0:0000abcd",
    )


@pytest.fixture()
def journal_path(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JournalWriter(path) as writer:
        writer.write_header({"dispatcher": "NSTD-P", "n_taxis": 4, "n_requests": 9})
        cum = 0
        for frame in range(3):
            pairs = [(frame * 10 + 1, 2), (frame * 10 + 3, 4)]
            writer.write_frame(digest(frame, pairs, cum=cum))
            cum = frame_pairs_crc(pairs, seed=cum)
    return path


def rows(frame, pairs):
    """History rows in the engine's layout (values are arbitrary here)."""
    return {
        "assignments": [[frame * 30.0, tid, [rid], -1.25, 3.5, 2.25] for rid, tid in pairs],
        "outcomes": [[rid, frame * 30.0, 100.0, 400.0, 0.75, 1, tid, False]
                     for rid, tid in pairs],
        "stats": [frame * 30.0, 3, 5, len(pairs), len(pairs), 0, 0.125],
    }


@pytest.fixture()
def rows_journal_path(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JournalWriter(path) as writer:
        writer.write_header({"dispatcher": "NSTD-P", "n_taxis": 4, "n_requests": 9})
        cum = 0
        for frame in range(3):
            pairs = [(frame * 10 + 1, 2), (frame * 10 + 3, 4)]
            writer.write_frame(digest(frame, pairs, cum=cum), rows(frame, pairs))
            cum = frame_pairs_crc(pairs, seed=cum)
    return path


class TestRoundTrip:
    def test_written_journal_reads_back_exactly(self, journal_path):
        contents = read_journal(journal_path)
        assert contents.header["dispatcher"] == "NSTD-P"
        assert [d.frame for d in contents.frames] == [0, 1, 2]
        assert contents.last_frame == 2
        assert not contents.truncated_tail
        assert not contents.needs_newline
        assert contents.valid_bytes == journal_path.stat().st_size
        # Digests survive the JSON round trip bit-identically.
        assert contents.frames[1] == digest(
            1, [(11, 2), (13, 4)], cum=frame_pairs_crc([(1, 2), (3, 4)])
        )

    def test_end_record_marks_completion(self, journal_path):
        with JournalWriter(journal_path, append=True) as writer:
            writer.write_end({"frames": 3})
        contents = read_journal(journal_path)
        assert contents.end is not None
        assert contents.end["frames"] == 3

    def test_frame_rows_read_back_with_their_digest(self, rows_journal_path):
        contents = read_journal(rows_journal_path)
        assert [d.frame for d in contents.frames] == [0, 1, 2]
        assert contents.rows[1] == rows(1, [(11, 2), (13, 4)])
        digests, prefix_rows = contents.prefix(1)
        assert [d.frame for d in digests] == [0, 1]
        assert history_cursor(digests, prefix_rows) == {
            "frames": 2,
            "assignments": 4,
            "outcomes": 4,
            "cum_crc": contents.frames[1].cum_crc,
        }

    def test_records_without_rows_read_back_empty(self, journal_path):
        assert read_journal(journal_path).rows == [{}, {}, {}]

    def test_pairs_crc_is_order_invariant(self):
        forward = frame_pairs_crc([(1, 2), (3, 4), (5, 6)])
        shuffled = frame_pairs_crc([(5, 6), (1, 2), (3, 4)])
        assert forward == shuffled
        assert frame_pairs_crc([(1, 2)]) != frame_pairs_crc([(1, 3)])


class TestTornTail:
    """Crash-mid-append: accepted with a warning, never an exception."""

    def test_truncated_final_line_is_dropped_with_warning(self, journal_path):
        raw = journal_path.read_bytes()
        journal_path.write_bytes(raw[:-20])  # tear the last record mid-line
        with pytest.warns(RuntimeWarning, match="torn final journal line"):
            contents = read_journal(journal_path)
        assert [d.frame for d in contents.frames] == [0, 1]
        assert contents.truncated_tail
        # The trusted prefix excludes the torn bytes: truncating the file
        # to valid_bytes yields a journal that reads back cleanly.
        journal_path.write_bytes(raw[: contents.valid_bytes])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_journal(journal_path).last_frame == 1

    def test_missing_final_newline_keeps_the_record(self, journal_path):
        raw = journal_path.read_bytes()
        journal_path.write_bytes(raw[:-1])  # only the "\n" is lost
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            contents = read_journal(journal_path)
        assert [d.frame for d in contents.frames] == [0, 1, 2]
        assert contents.needs_newline
        assert not contents.truncated_tail


class TestCorruption:
    """Damage anywhere but the tail is a typed hard failure."""

    def test_flipped_byte_mid_journal_raises(self, journal_path):
        raw = bytearray(journal_path.read_bytes())
        # Flip one digit inside the second line's payload, away from the
        # tail, keeping the JSON parseable so only the checksum trips.
        second_line_start = raw.index(b"\n") + 1
        target = raw.index(b'"queue":3', second_line_start) + len(b'"queue":')
        raw[target] = ord("7")
        journal_path.write_bytes(bytes(raw))
        with pytest.raises(JournalCorruptionError, match="checksum mismatch"):
            read_journal(journal_path)

    def test_flipped_byte_inside_frame_rows_raises(self, rows_journal_path):
        raw = bytearray(rows_journal_path.read_bytes())
        # Change one outcome's pickup time in the first frame's rows; the
        # line stays valid JSON, so only the checksum can catch it.
        second_line_start = raw.index(b"\n") + 1
        target = raw.index(b"100.0", raw.index(b'"outcomes"', second_line_start))
        raw[target] = ord("7")
        rows_journal_path.write_bytes(bytes(raw))
        with pytest.raises(JournalCorruptionError, match="checksum mismatch"):
            read_journal(rows_journal_path)

    def test_unparseable_middle_line_raises(self, journal_path):
        lines = journal_path.read_text().splitlines(keepends=True)
        lines[2] = "not json at all\n"
        journal_path.write_text("".join(lines))
        with pytest.raises(JournalCorruptionError, match="not valid JSON"):
            read_journal(journal_path)

    def test_record_without_checksum_raises(self, journal_path):
        with journal_path.open("a") as handle:
            handle.write('{"kind":"frame","frame":3}\n')
        with pytest.raises(JournalCorruptionError, match="no checksum"):
            read_journal(journal_path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        with pytest.raises(JournalCorruptionError, match="no valid records"):
            read_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JournalWriter(path) as writer:
            writer.write_frame(digest(0, [(1, 2)]))
        with pytest.raises(JournalCorruptionError, match="not a header"):
            read_journal(path)


class TestSchemaSkew:
    def test_unknown_schema_version_is_a_typed_refusal(self, tmp_path, journal_path):
        # Rewrite the header with a future version, re-checksummed so
        # only the version — not integrity — is at issue.
        from repro.resilience.journal import _checksummed_line

        lines = journal_path.read_text().splitlines(keepends=True)
        future = {"kind": "header", "schema": "repro-journal/99", "dispatcher": "NSTD-P"}
        lines[0] = _checksummed_line(future)
        skewed = tmp_path / "skewed.jsonl"
        skewed.write_text("".join(lines))
        with pytest.raises(JournalSchemaError, match="repro-journal/99"):
            read_journal(skewed)
        assert JOURNAL_SCHEMA == "repro-journal/4"
