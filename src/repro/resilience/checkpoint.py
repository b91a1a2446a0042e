"""Durable checkpoint/resume: periodic snapshots + journal replay.

The other half of the crash-recovery story (the write-ahead journal is
:mod:`repro.resilience.journal`).  The run's history — assignment
records, resolved request outcomes, frame statistics, resilience and
audit records — is append-only and lives in the journal, one frame's
rows per record.  A snapshot therefore carries only the run's *mutable*
state: taxi agents, the pending queue, the clock and trace cursor, the
dispatcher, fault-injector and repositioning payloads, and a *history
cursor* (frames, assignment rows and resolved outcomes so far, plus
``cum_crc``) naming the journal prefix it presumes.  Its size is
O(fleet + queue), not O(run).  Every ``checkpoint_every_frames`` frames
the engine writes one, atomically and checksummed.  Warm-start solver
state (``FrameSolveState``) is deliberately **not** persisted: the warm
path is proven bit-identical to the cold solve (DESIGN.md §10), so a
resumed run simply restarts it cold and converges on the same
matchings, which keeps the resume path independent of solver internals.

Recovery (:func:`resume_simulation`) is snapshot + journal prefix +
verified replay: it loads the newest snapshot that passes validation,
checks the journal prefix up to the snapshot's frame against the
snapshot's history cursor, rebuilds the history from that prefix,
restores the mutable state, and replays the journal's remaining frames,
verifying every replayed frame digest against the journaled one — the
resumed run is *asserted* bit-identical to the uninterrupted run
(summary, outcomes, assignments), not assumed.  Torn snapshots (a crash
mid-write) are skipped with a warning; schema skew is a hard refusal.

All state crosses the snapshot and journal boundary as JSON.  Python's
``json`` serializes floats via ``repr`` (shortest round-trip), so every
float — coordinates, availability clocks, dissatisfaction scores — is
restored bit-identically, which is what makes the resume equality *bit*
equality rather than approximate.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.errors import (
    CheckpointError,
    CheckpointSchemaError,
    ResumeError,
)
from repro.resilience.journal import (
    FrameDigest,
    JournalContents,
    JournalWriter,
    checksummed_json,
    history_cursor,
    read_journal,
    record_crc,
)

if TYPE_CHECKING:  # avoids a resilience <-> simulation import cycle
    from collections.abc import Sequence

    from repro.core.types import PassengerRequest, Taxi
    from repro.resilience.faults import CrashPlan
    from repro.simulation.engine import SimulationResult, Simulator

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "DurabilityConfig",
    "DurabilityManager",
    "ResumePoint",
    "resume_simulation",
]

#: Schema version stamped into every snapshot envelope.  /3 moved the
#: run history (outcomes, assignments, frame stats, resilience and audit
#: records) out of the snapshot into the journal, leaving a history
#: cursor, and appends the ``crc`` member instead of sorting it in.  /4
#: added the frame cache's trip memo (``trips``), so a resumed run makes
#: the oracle calls, and draws the faults, of the interrupted one.  /5
#: dropped it: every run measures its trace's trips at run start, with
#: no fault injector armed, so a snapshot holds only mutable state.  /6
#: dropped the injector's random-stream state: it keeps its counters and
#: virtual clock.  Older snapshots are refused rather than guessed at,
#: per the version-skew policy below.
CHECKPOINT_SCHEMA = "repro-checkpoint/6"

_SNAPSHOT_PREFIX = "snap-"
_JOURNAL_NAME = "journal.jsonl"


@dataclass(frozen=True, slots=True)
class DurabilityConfig:
    """Tuning knobs of the journal/checkpoint subsystem.

    ``checkpoint_every_frames`` trades recovery time (frames replayed
    from the newest snapshot) against snapshot I/O; the journal itself
    is appended every frame regardless.  ``keep`` bounds disk usage —
    older snapshots beyond it are pruned after each successful write
    (at least one always survives).  ``fsync_journal_appends`` upgrades
    the journal from SIGKILL-durable (OS page cache) to power-loss
    durable at a per-frame fsync cost; snapshots are always fsynced
    before their atomic rename.
    """

    directory: Path
    checkpoint_every_frames: int = 120
    keep: int = 3
    fsync_journal_appends: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "directory", Path(self.directory))
        if self.checkpoint_every_frames < 1:
            raise ValueError(
                f"checkpoint_every_frames must be >= 1, got {self.checkpoint_every_frames}"
            )
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")


class CheckpointStore:
    """Atomic, checksummed snapshot files in one directory.

    Writes go to a temporary file, are fsynced, and are renamed into
    place, so a crash can only ever leave a *torn temporary*, never a
    torn snapshot; :meth:`latest_valid` additionally validates checksums
    so even external damage downgrades a snapshot to "skipped with a
    warning" rather than "restored garbage".
    """

    def __init__(self, directory: Path | str, *, keep: int = 3):
        self.directory = Path(directory)
        self.keep = keep

    def _snapshot_path(self, frame: int) -> Path:
        return self.directory / f"{_SNAPSHOT_PREFIX}{frame:08d}.json"

    def snapshot_paths(self) -> list[Path]:
        """All snapshot files, oldest first."""
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob(f"{_SNAPSHOT_PREFIX}*.json"))

    def _temporaries(self) -> list[Path]:
        """Snapshot temporaries a crash mid-write left behind."""
        if not self.directory.exists():
            return []
        return list(self.directory.glob(f"{_SNAPSHOT_PREFIX}*.json.tmp"))

    def write(self, frame: int, envelope: dict) -> Path:
        """Atomically persist one snapshot envelope and prune old ones."""
        self.directory.mkdir(parents=True, exist_ok=True)
        body = dict(envelope)
        body["schema"] = CHECKPOINT_SCHEMA
        body["frame"] = frame
        path = self._snapshot_path(frame)
        tmp = path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(checksummed_json(body))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
        self._prune()
        return path

    def _prune(self) -> None:
        paths = self.snapshot_paths()
        for stale in paths[: max(0, len(paths) - self.keep)] + self._temporaries():
            stale.unlink(missing_ok=True)

    def _load(self, path: Path) -> dict:
        try:
            body = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable snapshot ({exc})") from exc
        if not isinstance(body, dict) or "crc" not in body:
            raise CheckpointError(f"{path}: snapshot has no checksum")
        claimed = body.pop("crc")
        actual = record_crc(body)
        if claimed != actual:
            raise CheckpointError(
                f"{path}: snapshot checksum mismatch (stored {claimed}, computed {actual})"
            )
        schema = body.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointSchemaError(
                f"{path}: snapshot schema {schema!r} is not the supported "
                f"{CHECKPOINT_SCHEMA!r}; refusing to restore state whose layout "
                "this build does not know"
            )
        return body

    def latest_valid(self) -> dict | None:
        """The newest snapshot that passes validation, or ``None``.

        Torn or checksum-damaged snapshots are skipped with a warning
        (the crash-mid-write case older snapshots exist to absorb);
        schema skew raises — silently skipping it would quietly resume
        from a much older frame.
        """
        for path in reversed(self.snapshot_paths()):
            try:
                return self._load(path)
            except CheckpointSchemaError:
                raise
            except CheckpointError as exc:
                warnings.warn(
                    f"skipping invalid snapshot: {exc}", RuntimeWarning, stacklevel=2
                )
        return None

    def clear(self) -> None:
        """Delete every snapshot file and torn temporary (fresh-run
        initialization)."""
        for path in self.snapshot_paths() + self._temporaries():
            path.unlink(missing_ok=True)


@dataclass(frozen=True, slots=True)
class ResumePoint:
    """Where a resumed run restarts: the newest snapshot's ``state``
    payload, and the journal ``digests`` and ``history`` rows of frames
    ``0..frame`` it presumes, one of each per frame (see
    :mod:`repro.resilience.journal`)."""

    state: dict
    digests: list[FrameDigest]
    history: list[dict]


@dataclass(slots=True)
class _ResumeContext:
    """Replay bookkeeping carried by the manager during a resumed run."""

    journaled: dict[int, FrameDigest] = field(default_factory=dict)
    last_journaled: int = -1
    snapshot_frame: int = -1
    verified: int = 0


class DurabilityManager:
    """The engine-facing facade over journal + checkpoint store.

    The :class:`~repro.simulation.engine.Simulator` drives it through
    four calls: ``begin_run`` once per run, ``crash_point`` /
    ``commit_frame`` once per frame, and ``finish_run`` at the end.
    ``crash_plan`` (tests and chaos harnesses only) injects SIGKILL at a
    chosen frame and phase — *mid-frame* fires before the frame's
    journal append (the record is lost, the frame replays on resume),
    *boundary* fires after append and checkpoint (the record survives).
    """

    def __init__(
        self,
        config: DurabilityConfig,
        *,
        crash_plan: "CrashPlan | None" = None,
    ):
        self.config = config
        self.crash_plan = crash_plan
        self.store = CheckpointStore(config.directory, keep=config.keep)
        self.journal_path = config.directory / _JOURNAL_NAME
        self._writer: JournalWriter | None = None
        self._resume: _ResumeContext | None = None
        self._run_meta: dict | None = None

    # -- run lifecycle -----------------------------------------------------

    def begin_run(self, run_meta: dict, *, resuming: bool) -> None:
        """Open the journal for a fresh run or validate it for a resume.

        A fresh run replaces any artifacts a previous run left in the
        directory; a resume validates that the workload matches the one
        the journal header describes (same dispatcher, fleet and trace
        sizes) and refuses to splice states of different runs together.
        """
        self._run_meta = dict(run_meta)
        if not resuming:
            self.store.clear()
            self.journal_path.unlink(missing_ok=True)
            self._writer = JournalWriter(
                self.journal_path,
                append=False,
                fsync_every_append=self.config.fsync_journal_appends,
            )
            self._writer.write_header(run_meta)
            self._resume = None
            return
        if self._resume is None:
            raise ResumeError(
                "begin_run(resuming=True) without prepare_resume(); use "
                "resume_simulation() to recover a run"
            )
        header = {
            k: v
            for k, v in self._journal_header.items()
            if k not in ("kind", "schema", "crc")
        }
        if header != run_meta:
            raise ResumeError(
                "resume workload does not match the journaled run: "
                f"journal header {header!r} vs current run {run_meta!r}"
            )

    def prepare_resume(self, journal: JournalContents, snapshot_frame: int) -> None:
        """Arm replay verification against ``journal`` (resume path only)."""
        # Appending after a torn tail must never merge bytes into the
        # damaged line: truncate the file to its trusted prefix first.
        if journal.truncated_tail:
            with self.journal_path.open("rb+") as handle:
                handle.truncate(journal.valid_bytes)
        self._journal_header = journal.header
        self._resume = _ResumeContext(
            journaled=journal.frames_by_index(),
            last_journaled=journal.last_frame,
            snapshot_frame=snapshot_frame,
        )
        self._writer = JournalWriter(
            self.journal_path,
            append=True,
            fsync_every_append=self.config.fsync_journal_appends,
        )
        if journal.needs_newline:
            handle = self._writer._file()
            handle.write("\n")
            handle.flush()
        self._writer.write_resume(
            from_frame=journal.last_frame, snapshot_frame=snapshot_frame
        )

    # -- per-frame ---------------------------------------------------------

    def crash_point(self, frame: int, phase: str) -> None:
        """Chaos hook: die here if the crash plan targets (frame, phase)."""
        if self.crash_plan is not None:
            self.crash_plan.execute(frame, phase)

    def commit_frame(
        self, digest: FrameDigest, rows: dict, state_payload: Callable[[], dict]
    ) -> None:
        """Journal one completed frame's digest and history ``rows``;
        checkpoint and crash-check after.

        On a resumed run, frames the journal already holds are *verified*
        against their journaled digests instead of re-appended; a
        mismatch means the replayed state diverged from the original run
        and raises :class:`~repro.core.errors.ResumeError` rather than
        letting a silently different run masquerade as a recovery.
        """
        writer = self._writer
        if writer is None:
            raise CheckpointError("commit_frame before begin_run")
        replay = self._resume
        if replay is not None and digest.frame <= replay.last_journaled:
            journaled = replay.journaled.get(digest.frame)
            if journaled is None:
                raise ResumeError(
                    f"frame {digest.frame} is below the journal frontier "
                    f"({replay.last_journaled}) but has no journaled digest"
                )
            if journaled.replay_key() != digest.replay_key():
                raise ResumeError(
                    f"replayed frame {digest.frame} diverged from the journal: "
                    f"journaled {journaled.replay_key()} vs replayed "
                    f"{digest.replay_key()}; the recovered state is not "
                    "bit-identical to the original run"
                )
            replay.verified += 1
        else:
            writer.write_frame(digest, rows)
        if (digest.frame + 1) % self.config.checkpoint_every_frames == 0:
            self._write_snapshot(digest.frame, state_payload(), finished=False)
        self.crash_point(digest.frame, "boundary")

    def _write_snapshot(self, frame: int, state: dict, *, finished: bool) -> None:
        # The journal must reach disk before the snapshot that presumes
        # it: a snapshot newer than the journal frontier is unrecoverable.
        writer = self._writer
        if writer is not None:
            writer.sync()
        envelope = {
            "finished": finished,
            "run": self._run_meta or {},
            "state": state,
        }
        self.store.write(frame, envelope)

    # -- run end -----------------------------------------------------------

    def finish_run(self, frame: int, summary: dict, state_payload: Callable[[], dict]) -> None:
        """Seal the journal and leave a final ``finished`` snapshot."""
        writer = self._writer
        if writer is None:
            raise CheckpointError("finish_run before begin_run")
        self._write_snapshot(frame, state_payload(), finished=True)
        writer.write_end(summary)
        writer.close()
        self._writer = None

    @property
    def resuming(self) -> bool:
        """Whether :meth:`prepare_resume` armed replay verification."""
        return self._resume is not None

    @property
    def frames_verified(self) -> int:
        """Replayed frames whose digests matched the journal (resume only)."""
        return self._resume.verified if self._resume is not None else 0


def resume_simulation(
    simulator: "Simulator",
    taxis: "Sequence[Taxi]",
    requests: "Sequence[PassengerRequest]",
    *,
    fresh_ok: bool = False,
) -> "SimulationResult":
    """Recover an interrupted run from its durability directory.

    Loads the newest valid snapshot, checks the journal prefix through
    its frame against the snapshot's history cursor, rebuilds the
    history from that prefix and restores the mutable state the
    snapshot carries, replays the remaining frames while verifying each
    against the journaled digests, and returns the completed
    :class:`~repro.simulation.engine.SimulationResult` — bit-identical
    (summary, outcomes, assignments) to the run that was interrupted.

    ``taxis`` and ``requests`` must be the same workload the interrupted
    run was given (traces are seeded, so regenerating them is exact);
    :class:`~repro.core.errors.ResumeError` is raised when they do not
    match the journal header.  With ``fresh_ok=True`` an empty directory
    falls back to a normal run instead of raising, which is what lets a
    ``--resume`` flag double as "start if there is nothing to resume".

    Every other refusal is a typed hard error, never a silent restart:
    :class:`~repro.core.errors.ResumeError` when no manager is
    installed, there is nothing to resume (without ``fresh_ok``),
    snapshots exist without a journal, the journal already records a
    completed run, the snapshot is ahead of the journal frontier, the
    journal prefix disagrees with the snapshot's history cursor, or a
    replayed frame's digest diverges;
    :class:`~repro.core.errors.JournalCorruptionError` /
    :class:`~repro.core.errors.JournalSchemaError` propagate unchanged
    from :func:`~repro.resilience.journal.read_journal`.
    """
    manager = simulator.durability
    if manager is None:
        raise ResumeError("simulator has no DurabilityManager installed")
    if not manager.journal_path.exists():
        if manager.store.snapshot_paths():
            raise ResumeError(
                f"{manager.config.directory}: snapshots exist but the journal is "
                "missing; refusing to resume without replay verification"
            )
        if fresh_ok:
            return simulator.run(taxis, requests)
        raise ResumeError(f"{manager.config.directory}: nothing to resume")

    journal = read_journal(manager.journal_path)
    if journal.end is not None:
        raise ResumeError(
            f"{manager.journal_path}: journal records a completed run; "
            "nothing to resume (start a fresh run to recompute it)"
        )
    snapshot = manager.store.latest_valid()
    point: ResumePoint | None = None
    snapshot_frame = -1
    if snapshot is not None:
        snapshot_frame = int(snapshot["frame"])
        if snapshot_frame > journal.last_frame:
            raise ResumeError(
                f"snapshot frame {snapshot_frame} is ahead of the journal "
                f"frontier {journal.last_frame}; the journal lost more than a "
                "torn tail — refusing to resume"
            )
        state = snapshot["state"]
        digests, history = journal.prefix(snapshot_frame)
        cursor = history_cursor(digests, history)
        if cursor != state.get("history") or cursor["frames"] != snapshot_frame + 1:
            raise ResumeError(
                f"journal prefix through frame {snapshot_frame} ends at history "
                f"cursor {cursor}, but the snapshot presumes {state.get('history')}; "
                "refusing to rebuild a history the snapshot does not describe"
            )
        point = ResumePoint(state=state, digests=digests, history=history)

    manager.prepare_resume(journal, snapshot_frame)
    return simulator.run(taxis, requests, _resume=point)
