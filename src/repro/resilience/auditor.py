"""Sampled runtime re-verification of matching stability.

The warm-start fast path (DESIGN.md §10) carries mutable cross-frame
state whose silent corruption nothing at runtime would otherwise catch
— the bit-identity guarantees are proven in tests and benchmarks, not
re-checked in production.  The
:class:`StabilityAuditor` closes that gap: on a deterministic sample of
the frames whose dispatcher reports a solve mode (warm or cold) it
rebuilds the frame's preference structure *cold*
(through :meth:`~repro.dispatch.base.Dispatcher.audit_preferences`, a
code path independent of the warm solvers) and re-runs the Definition-1
blocking-pair test of :mod:`repro.matching.verification` against the
matching the fast path shipped.

On a clean audit the frame proceeds untouched.  On a divergence — a
blocking pair, or a structurally invalid matching — the auditor
**heals** the frame instead of shipping it: the dispatcher's warm state
is invalidated (:meth:`~repro.dispatch.base.Dispatcher.
invalidate_warm_state`), the frame is recomputed cold, the replacement
is verified, and a :class:`~repro.resilience.report.
StabilityAuditRecord` documents the event.  Divergences are *expected
never* — committed benchmark rows assert ``audit_divergences == 0`` —
but when one happens the run self-corrects rather than silently
propagating a corrupt matching into taxi motion.

Sampling is stateless and hash-based — ``crc32(f"{seed}:{frame}")``
against a rate threshold — so the audited frame set depends only on
``(seed, frame index)``: it is reproducible across runs, stable across
a checkpoint/resume boundary (no RNG state to persist, and a frame a
resume re-solves cold is as eligible as the warm frame it replaces),
and consumes no random stream any other component shares.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence

from repro.core.clock import telemetry_clock
from repro.core.errors import EnumerationBudgetError, MatchingError
from repro.core.types import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher, PackedSingleSchedule
from repro.matching.result import Matching
from repro.matching.verification import find_blocking_pairs, is_valid_matching
from repro.resilience.report import StabilityAuditRecord, StabilityAuditReport

__all__ = [
    "DEFAULT_AUDIT_RATE",
    "StabilityAuditor",
    "schedule_pairs",
]

#: Default fraction of eligible frames the auditor re-verifies.  A full
#: audit costs roughly one cold preference build, so 1/64 keeps the
#: added wall-clock well under the 5% budget on warm city-day runs.
DEFAULT_AUDIT_RATE = 1.0 / 64.0

#: ``blocking_pairs`` sentinel for a structurally invalid matching
#: (unknown ids or an unacceptable pair) — worse than any blocking-pair
#: count, and impossible to enumerate pairs for.
INVALID_MATCHING = -1


def schedule_pairs(
    schedule: DispatchSchedule,
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
) -> dict[int, int] | None:
    """The ``{request_id: taxi_id}`` pairs of a single-rider schedule.

    Returns ``None`` for schedules the stability test does not apply to
    (a ride-sharing assignment carrying several requests).
    """
    if isinstance(schedule, PackedSingleSchedule):
        return {
            requests[r_row].request_id: taxis[t_row].taxi_id
            for t_row, r_row in zip(
                schedule.taxi_rows.tolist(), schedule.request_rows.tolist()
            )
        }
    pairs: dict[int, int] = {}
    for assignment in schedule.assignments:
        if len(assignment.request_ids) != 1:
            return None
        pairs[assignment.request_ids[0]] = assignment.taxi_id
    return pairs


class StabilityAuditor:
    """Re-verifies sampled frames; heals and records divergence.

    One auditor serves one run: the engine constructs (or resets) it at
    run start and harvests :attr:`report` into the result.  ``rate`` is
    the sampled fraction of eligible frames: those whose dispatcher
    reported the path that solved them (``last_frame_mode``, warm or
    cold).  Cold frames are eligible too, so a resumed run, whose first
    frame after the snapshot solves cold, audits the frames the
    uninterrupted run audits.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        rate: float = DEFAULT_AUDIT_RATE,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.seed = seed
        self.rate = rate
        self.report = StabilityAuditReport()

    def reset(self) -> None:
        """Fresh report for a new run (the sampler is stateless)."""
        self.report = StabilityAuditReport()

    def should_audit(self, frame_index: int, mode: str | None) -> bool:
        """Deterministic, resume-stable sampling decision for one frame."""
        if mode is None or self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        draw = zlib.crc32(f"{self.seed}:{frame_index}".encode("utf-8"))
        return draw < self.rate * 2.0**32

    def _violations(
        self,
        dispatcher: Dispatcher,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        pairs: dict[int, int],
    ) -> int:
        """Blocking-pair count of ``pairs`` against a cold preference
        rebuild; :data:`INVALID_MATCHING` for a structurally bad one."""
        prefs = dispatcher.audit_preferences(taxis, requests)
        try:
            matching = Matching(pairs)
        except EnumerationBudgetError:
            raise
        except MatchingError:
            # e.g. one taxi matched twice: not even a matching.
            return INVALID_MATCHING
        if not is_valid_matching(prefs, matching):
            return INVALID_MATCHING
        return len(find_blocking_pairs(prefs, matching))

    def audit_frame(
        self,
        *,
        frame_index: int,
        time_s: float,
        dispatcher: Dispatcher,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        schedule: DispatchSchedule,
    ) -> tuple[DispatchSchedule, StabilityAuditRecord | None]:
        """Audit one frame's shipped schedule; heal it on divergence.

        Returns the schedule the engine should execute — the original on
        a clean audit, a cold recomputation on divergence — plus the
        audit record (``None`` when the frame was not sampled or not
        auditable).  The healed schedule is itself re-verified, so a
        divergence that survives the cold recompute (which would mean
        the *cold* solver is broken, not the warm state) is recorded
        with ``healed=False`` rather than papered over.
        """
        mode = dispatcher.last_frame_mode
        if not self.should_audit(frame_index, mode):
            return schedule, None
        start = telemetry_clock()
        pairs = schedule_pairs(schedule, taxis, requests)
        if pairs is None:
            return schedule, None
        violations = self._violations(dispatcher, taxis, requests, pairs)
        record = StabilityAuditRecord(
            time_s=time_s,
            frame=frame_index,
            mode=mode or "unknown",
            requests=len(requests),
            taxis=len(taxis),
            blocking_pairs=violations if violations > 0 else 0,
        )
        if violations:
            record.diverged = True
            if violations == INVALID_MATCHING:
                record.blocking_pairs = INVALID_MATCHING
            # The fast path shipped a corrupt matching: drop the warm
            # state it grew from, redo the frame cold, and verify the
            # replacement before letting it execute.
            dispatcher.invalidate_warm_state(reason="audit-divergence")
            schedule = dispatcher.dispatch(taxis, requests)
            healed_pairs = schedule_pairs(schedule, taxis, requests)
            record.healed = (
                healed_pairs is not None
                and self._violations(dispatcher, taxis, requests, healed_pairs) == 0
            )
        record.audit_ms = (telemetry_clock() - start) * 1e3
        self.report.record(record)
        return schedule, record
