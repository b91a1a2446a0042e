"""Algorithm 2's taxi-best pick: the exact NSTD-T route.

The test oracle of :func:`repro.matching.optimality.taxi_optimal`, which
reaches the same matching by one taxi-proposing deferred-acceptance run
instead of enumerating the stable lattice.
"""

from __future__ import annotations

from repro.core.errors import MatchingError
from repro.matching.enumeration import all_stable_matchings
from repro.matching.preferences import PreferenceTable
from repro.matching.result import Matching
from repro.resilience.budget import FrameBudget

__all__ = ["taxi_optimal_exact"]


def taxi_optimal_exact(
    table: PreferenceTable,
    *,
    limit: int | None = None,
    max_nodes: int | None = None,
    deadline: FrameBudget | None = None,
) -> Matching:
    """NSTD-T via the paper's route: enumerate with Algorithm 2, then pick
    the matching every taxi weakly prefers (the taxi-best lattice point).

    Selection minimizes the sum of taxi-side ranks; on the stable-matching
    lattice this is uniquely minimized by the taxi-optimal matching.

    ``max_nodes``/``deadline`` bound the enumeration (see
    :func:`~repro.matching.enumeration.all_stable_matchings`); when it
    truncates, the selection is over the anytime prefix, which always
    contains the passenger-optimal matching, so a valid stable matching
    is still returned.
    """
    matchings = all_stable_matchings(table, limit=limit, max_nodes=max_nodes, deadline=deadline)
    if not matchings:
        raise MatchingError("no stable matchings found")
    return min(matchings, key=lambda m: (_taxi_rank_sum(table, m), sorted(m.pairs)))


def _taxi_rank_sum(table: PreferenceTable, matching: Matching) -> int:
    total = 0
    for proposer_id, reviewer_id in matching.pairs:
        rank = table.reviewer_rank(reviewer_id, proposer_id)
        assert rank is not None
        total += rank
    return total
