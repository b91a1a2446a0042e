"""Per-frame accounting of which degradation-ladder rung served a frame.

The :class:`~repro.simulation.engine.Simulator` records one
:class:`FrameResilienceRecord` per dispatched frame when a
:class:`~repro.resilience.ladder.ResiliencePolicy` is installed, and
attaches the collected :class:`ResilienceReport` to the
:class:`~repro.simulation.engine.SimulationResult`.  The report answers
the operational questions a production broker cares about: which frames
degraded, to which rung, triggered by what, and whether any frame was
dropped entirely (the invariant chaos runs assert is *never*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FrameResilienceRecord",
    "ResilienceReport",
    "DROPPED_RUNG",
    "StabilityAuditRecord",
    "StabilityAuditReport",
]

#: Rung name recorded when even the terminal ladder rung failed and the
#: engine emitted an empty schedule.  Chaos runs assert this never appears.
DROPPED_RUNG = "dropped"


@dataclass(slots=True)
class FrameResilienceRecord:
    """How one frame's dispatch was served.

    ``trigger`` names what pushed the frame off the previous rung(s):
    ``None`` for a frame served by the primary dispatcher on the first
    attempt, ``"deadline"`` for a frame-budget overrun, ``"enum-budget"``
    for an enumeration work budget that escaped its rung, ``"fault"``
    for an injected/observed transient fault, ``"error"`` for any other
    dispatcher error absorbed by the ladder.
    """

    time_s: float
    rung: str
    rung_index: int
    trigger: str | None = None
    attempts: int = 1
    faults: int = 0
    budget_s: float = 0.0
    elapsed_s: float = 0.0

    @property
    def degraded(self) -> bool:
        """Whether the frame fell below the primary rung (or dropped)."""
        return self.rung_index > 0 or self.rung == DROPPED_RUNG


@dataclass(slots=True)
class ResilienceReport:
    """All resilience records of one simulation run."""

    frames: list[FrameResilienceRecord] = field(default_factory=list)

    def record(self, entry: FrameResilienceRecord) -> None:
        """Append one frame's resilience record."""
        self.frames.append(entry)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def degraded_frames(self) -> list[FrameResilienceRecord]:
        """Frames served below the primary rung, in frame order."""
        return [f for f in self.frames if f.degraded]

    @property
    def dropped_frames(self) -> int:
        """Frames no ladder rung could answer (must stay zero)."""
        return sum(1 for f in self.frames if f.rung == DROPPED_RUNG)

    @property
    def faults_absorbed(self) -> int:
        """Total injected faults the run survived."""
        return sum(f.faults for f in self.frames)

    def served_by_rung(self) -> dict[str, int]:
        """Frame counts keyed by the rung that served them."""
        counts: dict[str, int] = {}
        for frame in self.frames:
            counts[frame.rung] = counts.get(frame.rung, 0) + 1
        return counts

    def summary(self) -> dict[str, float]:
        """Headline resilience numbers for reports and chaos assertions."""
        return {
            "frames": float(len(self.frames)),
            "degraded_frames": float(len(self.degraded_frames)),
            "dropped_frames": float(self.dropped_frames),
            "faults_absorbed": float(self.faults_absorbed),
        }


@dataclass(slots=True)
class StabilityAuditRecord:
    """One sampled frame's stability re-verification outcome.

    ``mode`` is the path the frame was served by (``"warm"`` or
    ``"cold"``).  ``diverged`` marks the case the auditor exists for:
    the fast path shipped a matching with blocking pairs, the auditor
    invalidated warm state and recomputed the frame cold, and
    ``healed`` records that the replacement passed.
    ``blocking_pairs`` counts the violations found in the *original*
    matching (zero on a clean audit).
    """

    time_s: float
    frame: int
    mode: str
    requests: int
    taxis: int
    blocking_pairs: int = 0
    diverged: bool = False
    healed: bool = False
    audit_ms: float = 0.0


@dataclass(slots=True)
class StabilityAuditReport:
    """All stability-audit records of one simulation run."""

    frames: list[StabilityAuditRecord] = field(default_factory=list)

    def record(self, entry: StabilityAuditRecord) -> None:
        """Append one audited frame's record."""
        self.frames.append(entry)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def divergences(self) -> list[StabilityAuditRecord]:
        """Audited frames whose warm matching diverged (expected none)."""
        return [f for f in self.frames if f.diverged]

    @property
    def audit_ms(self) -> float:
        """Total wall-clock the auditor spent re-verifying frames."""
        return sum(f.audit_ms for f in self.frames)

    def summary(self) -> dict[str, float]:
        """Headline audit numbers (``divergences`` is expected zero)."""
        return {
            "frames_audited": float(len(self.frames)),
            "audit_divergences": float(len(self.divergences)),
            "audit_healed": float(sum(1 for f in self.divergences if f.healed)),
            "audit_ms": self.audit_ms,
        }
