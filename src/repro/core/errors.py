"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch one base class.  Specific subclasses mark the
subsystem that failed, which keeps error handling explicit at call sites
(e.g. a simulation driver may tolerate a :class:`DispatchError` for one
frame but must never swallow a :class:`ConfigurationError`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TraceFormatError",
    "PreferenceError",
    "MatchingError",
    "UnstableMatchingError",
    "EnumerationBudgetError",
    "PackingError",
    "RoutingError",
    "DispatchError",
    "SimulationError",
    "ExperimentError",
    "FrameBudgetExceededError",
    "TransientFaultError",
    "WARM_FALLBACK_REASONS",
    "WARM_FALLBACK_OTHER",
    "JournalError",
    "JournalCorruptionError",
    "JournalSchemaError",
    "CheckpointError",
    "CheckpointSchemaError",
    "ResumeError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is out of range or inconsistent."""


class TraceFormatError(ReproError):
    """A trace file or record does not match the expected schema."""


class PreferenceError(ReproError):
    """A preference table is malformed (unknown ids, missing dummy, ...)."""


class MatchingError(ReproError):
    """A matching routine received invalid input or reached a bad state."""


class UnstableMatchingError(MatchingError):
    """A produced matching violates the stability invariant.

    Raised by verification helpers when asked to *assert* stability; the
    offending blocking pairs are attached for diagnosis.
    """

    def __init__(self, message: str, blocking_pairs: list | None = None):
        super().__init__(message)
        self.blocking_pairs = list(blocking_pairs or [])


class EnumerationBudgetError(MatchingError):
    """A lattice enumeration or break cascade exhausted its work budget.

    Carries the partial lattice collected before the budget ran out
    (``matchings``) and the number of nodes expanded (``nodes``), so
    callers that asked for a hard failure can still salvage the anytime
    result.
    """

    def __init__(self, message: str, *, matchings: list | None = None, nodes: int = 0):
        super().__init__(message)
        self.matchings = list(matchings or [])
        self.nodes = nodes


class WarmStartError(MatchingError):
    """A warm-start seed cannot be safely resumed on the new instance.

    Raised by the warm frame solver (:mod:`repro.matching.warm_frame`)
    when a frame violates one of its preconditions (e.g. a negative α,
    duplicate ids, or an id beyond the float-exact range).  Callers fall
    back to a cold solve; the error carries the reason for warm-hit-rate
    telemetry.
    """

    def __init__(self, message: str, *, reason: str = "invalid-seed"):
        super().__init__(message)
        self.reason = reason


#: The closed set of warm-start fallback/invalidation reasons that may
#: appear as ``warm_fallback_<reason>`` / ``warm_invalidation_<reason>``
#: telemetry keys.  Dispatchers map any reason outside this set to
#: :data:`WARM_FALLBACK_OTHER`, so the ``perf_stats()`` key universe is
#: bounded and deterministic across runs regardless of what a future
#: solver raises.
WARM_FALLBACK_REASONS: frozenset[str] = frozenset(
    {
        "invalid-seed",
        "bad-alpha",
        "duplicate-ids",
        "id-overflow",
        "audit-divergence",
        "external",
        # Why a sharing frame ran cold (DESIGN §10, "Warm STD").
        "run-start",
        "ladder",
        "budget",
        "max-passengers",
        "memo-cleared",
    }
)

#: Telemetry bucket for warm-start reasons outside the enumerated set.
WARM_FALLBACK_OTHER = "other"


class PackingError(ReproError):
    """Set-packing input is invalid (e.g. an empty candidate subset)."""


class RoutingError(ReproError):
    """Shared-route computation received an infeasible or oversized group."""


class DispatchError(ReproError):
    """A dispatcher produced an invalid decision for the current frame."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class ExperimentError(ReproError):
    """An experiment runner was misconfigured or referenced unknown data."""


class FrameBudgetExceededError(ReproError):
    """A dispatcher's cooperative checkpoint found the frame deadline past.

    The simulation engine catches this and walks the degradation ladder;
    it escapes to users only when they run a budgeted dispatcher outside
    the engine.
    """

    def __init__(self, message: str, *, elapsed_s: float = 0.0, budget_s: float = 0.0):
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.budget_s = budget_s


class TransientFaultError(ReproError):
    """An injected or observed transient infrastructure fault.

    Raised by :class:`repro.resilience.faults.FaultyOracle` (and
    recognisable to retry logic in the engine and experiment runners);
    by definition a retry of the same operation may succeed.
    """


class JournalError(ReproError):
    """Base class for crash-recovery journal failures."""


class JournalCorruptionError(JournalError):
    """A journal record failed its checksum or structural validation.

    Raised for any damaged record that is *not* the torn final line of
    the file: a truncated tail is the expected signature of a crash
    mid-append and is tolerated (with a warning), while corruption
    anywhere else means the artifact cannot be trusted and recovery must
    refuse to proceed.
    """


class JournalSchemaError(JournalError):
    """A journal was written under an unknown schema version.

    Journals are replayed to verify recovered state; replaying records
    whose semantics this build does not know would silently validate the
    wrong thing, so version skew is a hard refusal, never a warning.
    """


class CheckpointError(ReproError):
    """A checkpoint snapshot could not be written or read."""


class CheckpointSchemaError(CheckpointError):
    """A snapshot was written under an unknown schema version."""


class ResumeError(ReproError):
    """Crash recovery could not reconstruct a trustworthy run state.

    Raised when resume preconditions fail (missing/mismatched workload,
    unsupported configuration) or when the replayed frames diverge from
    the journaled digests — the one signal that the recovered state is
    *not* bit-identical to the uninterrupted run.
    """
