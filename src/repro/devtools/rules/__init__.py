"""The repo-specific rule set.

Importing this package registers every rule with
:mod:`repro.devtools.registry`.  One module per rule keeps each
invariant's detection logic reviewable next to the convention it
guards.
"""

from __future__ import annotations

from repro.devtools.rules import (  # noqa: F401  (imported for registration)
    rep001_wall_clock,
    rep002_seeded_rng,
    rep003_checkpoint,
    rep004_budget_errors,
    rep005_batched_sources,
    rep006_float_equality,
    rep007_annotations,
    rep008_durability,
    rep009_no_process_pool,
    rep010_warm_invalidation,
)

__all__ = [
    "rep001_wall_clock",
    "rep002_seeded_rng",
    "rep003_checkpoint",
    "rep004_budget_errors",
    "rep005_batched_sources",
    "rep006_float_equality",
    "rep007_annotations",
    "rep008_durability",
    "rep009_no_process_pool",
    "rep010_warm_invalidation",
]
