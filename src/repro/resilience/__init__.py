"""Resilience layer: deadlines, faults, durability, and self-verification.

See DESIGN.md §8 and §12.  The package keeps the paper's one-minute
frame contract under load and under faults — budgets bound every
expensive stage, the ladder guarantees some dispatcher answers every
frame, the fault injector makes the failure paths deterministic and
testable — and makes long runs durable and self-checking: the journal
and checkpoint store let a crashed run resume bit-identically, and the
stability auditor re-verifies sampled frames at runtime.
"""

from repro.core.errors import (
    CheckpointError,
    CheckpointSchemaError,
    EnumerationBudgetError,
    FrameBudgetExceededError,
    JournalCorruptionError,
    JournalError,
    JournalSchemaError,
    ResumeError,
    TransientFaultError,
)
from repro.resilience.auditor import (
    DEFAULT_AUDIT_RATE,
    StabilityAuditor,
    schedule_pairs,
)
from repro.resilience.budget import FrameBudget, WorkBudget
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    DurabilityConfig,
    DurabilityManager,
    resume_simulation,
)
from repro.resilience.faults import (
    CrashPlan,
    FaultInjector,
    FaultPlan,
    FaultyOracle,
)
from repro.resilience.journal import (
    JOURNAL_SCHEMA,
    FrameDigest,
    JournalContents,
    JournalWriter,
    frame_pairs_crc,
    read_journal,
)
from repro.resilience.ladder import ResiliencePolicy, Rung, default_ladder
from repro.resilience.report import (
    DROPPED_RUNG,
    FrameResilienceRecord,
    ResilienceReport,
    StabilityAuditRecord,
    StabilityAuditReport,
)

__all__ = [
    "FrameBudget",
    "WorkBudget",
    "FrameBudgetExceededError",
    "TransientFaultError",
    "EnumerationBudgetError",
    "JournalError",
    "JournalCorruptionError",
    "JournalSchemaError",
    "CheckpointError",
    "CheckpointSchemaError",
    "ResumeError",
    "FaultInjector",
    "FaultyOracle",
    "FaultPlan",
    "CrashPlan",
    "ResiliencePolicy",
    "Rung",
    "default_ladder",
    "ResilienceReport",
    "FrameResilienceRecord",
    "DROPPED_RUNG",
    "StabilityAuditRecord",
    "StabilityAuditReport",
    "StabilityAuditor",
    "DEFAULT_AUDIT_RATE",
    "schedule_pairs",
    "JOURNAL_SCHEMA",
    "FrameDigest",
    "JournalContents",
    "JournalWriter",
    "frame_pairs_crc",
    "read_journal",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "DurabilityConfig",
    "DurabilityManager",
    "resume_simulation",
]
