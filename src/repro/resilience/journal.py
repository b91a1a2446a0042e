"""Append-only, checksummed, schema-versioned crash-recovery journal.

A month-scale simulation (1,445,285 requests, ~44k frames) must survive
a crash at frame 40,000 without losing everything.  The journal is the
write-ahead half of that story and the run's durable history: one JSONL
record per completed frame, carrying

* a compact *outcome digest* (:class:`FrameDigest`) — the frame's
  matched pairs folded into a CRC, a running cumulative CRC over every
  assignment so far, the queue/idle/dispatch counters, and (when a
  fault injector is installed) a fingerprint of its seeded RNG state;
* the frame's ``rows`` — every history row the frame appended, as
  JSON values: its assignment records, the request outcomes it
  resolved (dispatched or abandoned; each outcome is written by
  exactly one frame), its frame statistics, and its resilience and
  stability-audit records when it has them, each less the fields the
  digest already carries.  The simulation core defines the row layout
  (:meth:`~repro.simulation.core.RunCore.frame_rows`); the journal
  carries it opaquely.

Snapshots therefore never repeat history: on recovery the engine
rebuilds it from the journal prefix up to the newest snapshot, then
replays the frames after it and verifies each replayed frame against
its journaled digest, so a resumed run is *proven* bit-identical to the
uninterrupted one rather than assumed.

Failure semantics are deliberately asymmetric:

* a **truncated tail** (the final line torn mid-write) is the expected
  signature of a crash during an append — the record is dropped with a
  :class:`RuntimeWarning` and recovery proceeds from the previous frame;
* a **checksum mismatch** or malformed record anywhere else is
  corruption and raises :class:`~repro.core.errors.JournalCorruptionError`;
* an **unknown schema version** raises
  :class:`~repro.core.errors.JournalSchemaError` — replaying records
  whose semantics this build does not know would verify the wrong
  thing, so version skew is a hard refusal.

Each line is the record's canonical JSON (sorted keys, no whitespace)
with a ``crc`` member appended last, holding the CRC-32 of that
canonical text; the text is serialized once and the checksum spliced
onto it.  A flipped byte anywhere in a line — rows included — therefore
fails validation.  Appends are flushed to the OS on every record, which
survives SIGKILL; callers that must survive power loss enable
per-append fsync via :class:`JournalWriter`'s ``fsync_every_append``.
"""

from __future__ import annotations

import json
import warnings
import zlib
from dataclasses import dataclass, field, fields
from os import fsync
from pathlib import Path
from types import TracebackType
from typing import IO

from repro.core.errors import JournalCorruptionError, JournalSchemaError

__all__ = [
    "JOURNAL_SCHEMA",
    "FrameDigest",
    "JournalContents",
    "JournalWriter",
    "checksummed_json",
    "frame_pairs_crc",
    "history_cursor",
    "read_journal",
    "record_crc",
]

#: Schema version stamped into every journal header; readers hard-refuse
#: anything else (see :class:`~repro.core.errors.JournalSchemaError`).
#: /2 added each frame's history ``rows`` to its record and appends the
#: ``crc`` member last instead of sorting it in.  /3 dropped the digest's
#: ``rung``, ``mode``, ``audited`` and ``divergence`` fields, which the
#: frame's resilience and audit rows already carry.  /4 dropped from the
#: rows what the digest carries: the frame time (from the assignment,
#: stats, resilience and audit rows), the queue, idle, dispatched and
#: abandoned counts (from the stats row) and the audit row's frame index
#: and queue and idle counts.  A restore rebuilds them from the digest.
JOURNAL_SCHEMA = "repro-journal/4"

_RECORD_KINDS = ("header", "frame", "resume", "end")


def _canonical(record: dict) -> str:
    """The canonical serialization the checksum is computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_crc(record: dict) -> int:
    """CRC-32 of ``record``'s canonical JSON (``record`` without ``crc``)."""
    return zlib.crc32(_canonical(record).encode("utf-8"))


def checksummed_json(record: dict) -> str:
    """``record``'s canonical JSON with a trailing ``crc`` member: the
    CRC-32 of the canonical text, which is serialized only once.

    The reader verifies layout-independently (it re-canonicalizes the
    record without ``crc``), so the member's position is free.
    ``record`` must be non-empty.
    """
    text = _canonical(record)
    return f'{text[:-1]},"crc":{zlib.crc32(text.encode("utf-8"))}}}'


def _checksummed_line(record: dict) -> str:
    return checksummed_json(record) + "\n"


def history_cursor(frames: list[FrameDigest], rows: list[dict]) -> dict[str, int]:
    """Where a journal prefix leaves the run history: its frame count,
    assignment and resolved-outcome row counts, and final ``cum_crc``.

    A snapshot records the same cursor for the history it presumes
    (:meth:`~repro.simulation.core.RunCore.state_payload`), so a resume
    can prove the journal prefix is exactly that history.
    """
    return {
        "frames": len(frames),
        "assignments": sum(len(r.get("assignments", ())) for r in rows),
        "outcomes": sum(len(r.get("outcomes", ())) for r in rows),
        "cum_crc": frames[-1].cum_crc if frames else 0,
    }


def frame_pairs_crc(pairs: list[tuple[int, int]], *, seed: int = 0) -> int:
    """CRC-32 digest of one frame's matched ``(request_id, taxi_id)`` pairs.

    Pairs are sorted before hashing, so the digest is independent of the
    order a dispatcher emitted its assignments in; ``seed`` chains the
    running cumulative digest across frames.
    """
    text = "|".join(f"{rid}:{tid}" for rid, tid in sorted(pairs))
    return zlib.crc32(text.encode("utf-8"), seed)


@dataclass(frozen=True, slots=True)
class FrameDigest:
    """The per-frame outcome digest journaled after a frame commits.

    Every field is replay-verified.  ``pairs_crc`` / ``cum_crc`` are
    warm/cold-invariant (the bit-identity theorems of DESIGN.md §10–11
    make the *matching* mode-independent), so a resumed run that
    restarts warm state cold still reproduces them exactly.  ``rng``,
    the fault injector's fingerprint, would differ between a warm frame
    and its cold replay (they make different oracle calls), but a
    resume refuses warm dispatch under an armed injector, so every
    replay it verifies is cold, like the run it replays.  The frame's
    ladder rung and audit verdict live in its ``rows``.
    """

    frame: int
    time_s: float
    queue: int
    idle: int
    dispatched: int
    abandoned: int
    pairs_crc: int
    cum_crc: int
    rng: str | None = None

    #: Fields a replayed frame must reproduce exactly.
    REPLAY_FIELDS = ("frame", "time_s", "queue", "idle", "dispatched", "abandoned",
                     "pairs_crc", "cum_crc", "rng")

    def replay_key(self) -> tuple:
        """The tuple a replayed frame must reproduce exactly
        (``REPLAY_FIELDS``)."""
        return tuple(getattr(self, name) for name in self.REPLAY_FIELDS)

    def to_record(self) -> dict:
        """This digest as a journal record (``kind="frame"``, no crc —
        the writer adds the checksum at append time)."""
        # A flat field copy: ``asdict``'s recursive deep copy costs more
        # than serializing the record.
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["kind"] = "frame"
        return record

    @classmethod
    def from_record(cls, record: dict) -> "FrameDigest":
        """Rebuild a digest from a validated journal record.

        Raises ``TypeError`` on unexpected fields, which
        :func:`read_journal` converts to a
        :class:`~repro.core.errors.JournalCorruptionError`.
        """
        fields = {k: v for k, v in record.items() if k not in ("kind", "crc")}
        return cls(**fields)


@dataclass(slots=True)
class JournalContents:
    """Everything a valid (possibly torn-tailed) journal contains.

    ``valid_bytes`` is the length of the trusted prefix of the file:
    before appending across a resume, the writer truncates the journal
    to this offset so a torn tail can never merge with a new record.
    ``needs_newline`` marks a final record that parsed but lost its
    terminating newline.  ``rows[i]`` holds the history rows journaled
    with ``frames[i]`` (an empty dict for a record written without any).
    """

    header: dict
    frames: list[FrameDigest]
    resumes: list[dict]
    end: dict | None
    truncated_tail: bool
    valid_bytes: int = 0
    needs_newline: bool = False
    rows: list[dict] = field(default_factory=list)

    @property
    def last_frame(self) -> int:
        """Index of the newest journaled frame; -1 for an empty journal."""
        return self.frames[-1].frame if self.frames else -1

    def prefix(self, frame: int) -> tuple[list[FrameDigest], list[dict]]:
        """The digests and rows of every record for frames up to ``frame``
        (records are in frame order: replays verify, never re-append)."""
        count = 0
        while count < len(self.frames) and self.frames[count].frame <= frame:
            count += 1
        return self.frames[:count], self.rows[:count]

    def frames_by_index(self) -> dict[int, FrameDigest]:
        """Frame records keyed by frame index (replays verify against
        these instead of re-appending, so indices never repeat)."""
        return {digest.frame: digest for digest in self.frames}


class JournalWriter:
    """Appends checksummed records to a journal file.

    The writer opens lazily on first append (``mode="x"`` for a fresh
    journal, ``"a"`` to extend one across a resume) and flushes every
    record so a SIGKILL can lose at most the line being written.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        append: bool = False,
        fsync_every_append: bool = False,
    ):
        self.path = Path(path)
        self.append = append
        self.fsync_every_append = fsync_every_append
        self._handle: IO[str] | None = None

    def _file(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a" if self.append else "w", encoding="utf-8")
        return self._handle

    def write_header(self, run_meta: dict) -> None:
        """Append the header record — first line of every journal,
        stamped with :data:`JOURNAL_SCHEMA` plus ``run_meta``."""
        record = {"kind": "header", "schema": JOURNAL_SCHEMA}
        record.update(run_meta)
        self._append(record)

    def write_frame(self, digest: FrameDigest, rows: dict | None = None) -> None:
        """Append one committed frame's outcome digest and the history
        ``rows`` it appended (JSON values; see the module docstring)."""
        record = digest.to_record()
        if rows is not None:
            record["rows"] = rows
        self._append(record)

    def write_resume(self, *, from_frame: int, snapshot_frame: int) -> None:
        """Append a resume marker: replay restarted at ``from_frame``
        from the snapshot taken at ``snapshot_frame``."""
        self._append(
            {"kind": "resume", "from_frame": from_frame, "snapshot_frame": snapshot_frame}
        )

    def write_end(self, summary: dict) -> None:
        """Append the end-of-run record carrying the final summary; a
        journal without one was interrupted."""
        record = {"kind": "end"}
        record.update(summary)
        self._append(record)

    def _append(self, record: dict) -> None:
        handle = self._file()
        handle.write(_checksummed_line(record))
        handle.flush()
        if self.fsync_every_append:
            fsync(handle.fileno())

    def sync(self) -> None:
        """Force the journal to stable storage (fsync)."""
        if self._handle is not None:
            self._handle.flush()
            fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush, fsync and close the file; safe to call twice (and
        called by the context-manager exit)."""
        if self._handle is not None:
            self._handle.flush()
            fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def _parse_line(line: str, line_no: int, path: Path) -> dict:
    """One complete journal line → its validated record, or raise."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JournalCorruptionError(
            f"{path}: line {line_no} is not valid JSON ({exc})"
        ) from exc
    if not isinstance(record, dict) or "crc" not in record:
        raise JournalCorruptionError(f"{path}: line {line_no} has no checksum field")
    claimed = record.pop("crc")
    actual = record_crc(record)
    if claimed != actual:
        raise JournalCorruptionError(
            f"{path}: line {line_no} checksum mismatch "
            f"(stored {claimed}, computed {actual}) — journal is corrupt, refusing"
        )
    if record.get("kind") not in _RECORD_KINDS:
        raise JournalCorruptionError(
            f"{path}: line {line_no} has unknown record kind {record.get('kind')!r}"
        )
    return record


def read_journal(path: Path | str) -> JournalContents:
    """Read and validate a journal, tolerating only a torn final line.

    Raises :class:`~repro.core.errors.JournalCorruptionError` on any
    damaged record that is not the truncated tail, and
    :class:`~repro.core.errors.JournalSchemaError` when the header's
    schema version is unknown.
    """
    path = Path(path)
    raw = path.read_text(encoding="utf-8")
    lines = raw.split("\n")
    # A well-formed journal ends with "\n", so the final split element is
    # empty; anything else is a line torn mid-append.
    torn = lines[-1] != ""
    complete = lines[:-1]
    tail = lines[-1] if torn else None

    records: list[dict] = []
    for line_no, line in enumerate(complete, start=1):
        if not line:
            raise JournalCorruptionError(f"{path}: line {line_no} is empty")
        records.append(_parse_line(line, line_no, path))

    truncated_tail = False
    needs_newline = False
    valid_bytes = len(raw.encode("utf-8"))
    if tail is not None:
        # An unterminated final line is either a complete record whose
        # newline was lost (rare, keep it) or a record torn mid-write
        # (the normal crash signature, drop it with a warning).
        try:
            records.append(_parse_line(tail, len(lines), path))
            needs_newline = True
        except JournalCorruptionError:
            truncated_tail = True
            valid_bytes -= len(tail.encode("utf-8"))
            warnings.warn(
                f"{path}: dropping torn final journal line ({len(tail)} bytes) — "
                "expected after a crash mid-append; recovery resumes from the "
                "previous frame",
                RuntimeWarning,
                stacklevel=2,
            )

    if not records:
        raise JournalCorruptionError(f"{path}: journal has no valid records")
    header = records[0]
    if header.get("kind") != "header":
        raise JournalCorruptionError(f"{path}: first record is not a header")
    schema = header.get("schema")
    if schema != JOURNAL_SCHEMA:
        raise JournalSchemaError(
            f"{path}: journal schema {schema!r} is not the supported "
            f"{JOURNAL_SCHEMA!r}; refusing to replay records whose semantics "
            "this build does not know"
        )

    frames: list[FrameDigest] = []
    rows: list[dict] = []
    resumes: list[dict] = []
    end: dict | None = None
    for record in records[1:]:
        kind = record["kind"]
        if kind == "frame":
            frame_rows = record.pop("rows", {})
            if not isinstance(frame_rows, dict):
                raise JournalCorruptionError(f"{path}: frame record rows are not an object")
            rows.append(frame_rows)
            try:
                frames.append(FrameDigest.from_record(record))
            except TypeError as exc:
                raise JournalCorruptionError(
                    f"{path}: frame record has unexpected fields ({exc})"
                ) from exc
        elif kind == "resume":
            resumes.append(record)
        elif kind == "end":
            end = record
        elif kind == "header":
            raise JournalCorruptionError(f"{path}: duplicate header record")
    return JournalContents(
        header=header,
        frames=frames,
        resumes=resumes,
        end=end,
        truncated_tail=truncated_tail,
        valid_bytes=valid_bytes,
        needs_newline=needs_newline,
        rows=rows,
    )
