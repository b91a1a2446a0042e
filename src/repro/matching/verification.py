"""Independent stability verification (Definition 1).

A matching is stable iff no passenger request and taxi would *both*
rather be with each other than with their current partners, where an
unmatched entity's partner is its dummy and any acceptable partner beats
the dummy.  Concretely, a mutually acceptable pair ``(p, r)`` blocks a
matching ``M`` when

* ``p`` is unmatched, or prefers ``r`` over ``M(p)``; **and**
* ``r`` is unmatched, or prefers ``p`` over ``M(r)``.

This module is deliberately written against the raw definition (no reuse
of deferred-acceptance internals) so it can act as an oracle in tests.

Both preference representations are accepted: the dict
:class:`PreferenceTable` path scans lists entry by entry (the oracle),
while the :class:`~repro.matching.arrays.PreferenceArrays` path runs the
same Definition-1 test vectorized over the edge arrays — O(E) NumPy
instead of O(E) Python — which is what lets per-frame stability
verification ride the array fast path.  The property suite asserts the
two paths agree pair for pair.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import UnstableMatchingError
from repro.matching.arrays import UNRANKED, PreferenceArrays
from repro.matching.preferences import PreferenceTable
from repro.matching.result import Matching

__all__ = ["find_blocking_pairs", "is_stable", "assert_stable", "is_valid_matching"]


def is_valid_matching(table: PreferenceTable | PreferenceArrays, matching: Matching) -> bool:
    """Every matched pair must be mutually acceptable and ids must exist."""
    if isinstance(table, PreferenceArrays):
        return _is_valid_matching_arrays(table, matching)
    for proposer_id, reviewer_id in matching.pairs:
        if proposer_id not in table.proposer_prefs:
            return False
        if reviewer_id not in table.reviewer_prefs:
            return False
        if not table.mutually_acceptable(proposer_id, reviewer_id):
            return False
    return True


def find_blocking_pairs(
    table: PreferenceTable | PreferenceArrays, matching: Matching
) -> list[tuple[int, int]]:
    """All pairs that block ``matching``, sorted for determinism.

    An empty result means the matching is stable in the sense of
    Definition 1 (with dummy partners).
    """
    if isinstance(table, PreferenceArrays):
        return _find_blocking_pairs_arrays(table, matching)
    blocking: list[tuple[int, int]] = []
    for proposer_id, prefs in table.proposer_prefs.items():
        matched_reviewer = matching.reviewer_of(proposer_id)
        if matched_reviewer is None:
            # Unmatched: every acceptable reviewer beats the dummy.
            better_reviewers = prefs
        else:
            rank = table.proposer_rank(proposer_id, matched_reviewer)
            assert rank is not None, "matched pair must be acceptable"
            better_reviewers = prefs[:rank]
        for reviewer_id in better_reviewers:
            holder = matching.proposer_of(reviewer_id)
            if holder is None:
                blocking.append((proposer_id, reviewer_id))
            elif table.reviewer_prefers(reviewer_id, proposer_id, holder):
                blocking.append((proposer_id, reviewer_id))
    return sorted(blocking)


def is_stable(table: PreferenceTable | PreferenceArrays, matching: Matching) -> bool:
    """Whether ``matching`` is valid and has no blocking pair."""
    return is_valid_matching(table, matching) and not find_blocking_pairs(table, matching)


def assert_stable(table: PreferenceTable | PreferenceArrays, matching: Matching) -> None:
    """Raise :class:`UnstableMatchingError` when ``matching`` is not stable."""
    if not is_valid_matching(table, matching):
        raise UnstableMatchingError("matching contains an unacceptable or unknown pair")
    blocking = find_blocking_pairs(table, matching)
    if blocking:
        raise UnstableMatchingError(
            f"matching has {len(blocking)} blocking pair(s), e.g. {blocking[:3]}",
            blocking_pairs=blocking,
        )


# -- array fast path -------------------------------------------------------


def _positions(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray | None:
    """The position of each ``wanted`` id in the unique ``ids``, or
    ``None`` when one is absent."""
    if not wanted.size:
        return np.empty(0, dtype=np.intp)
    if not ids.size:
        return None
    order = np.argsort(ids, kind="stable")
    rows = order[np.minimum(np.searchsorted(ids, wanted, sorter=order), ids.size - 1)]
    return rows if bool((ids[rows] == wanted).all()) else None


def _matched_indices(
    arrays: PreferenceArrays, matching: Matching
) -> tuple[np.ndarray, np.ndarray] | None:
    """Partner *indices* per entity position (-1 = dummy), or ``None``
    when the matching references an unknown id."""
    n = len(matching.pairs)
    try:
        pair_ids = np.fromiter(
            (i for pair in matching.pairs for i in pair), dtype=np.int64, count=2 * n
        ).reshape(n, 2)
    except OverflowError:
        return None  # beyond int64: no array id can match it
    p = _positions(np.asarray(arrays.proposer_ids, dtype=np.int64), pair_ids[:, 0])
    r = _positions(np.asarray(arrays.reviewer_ids, dtype=np.int64), pair_ids[:, 1])
    if p is None or r is None:
        return None
    rev_of_prop = np.full(arrays.n_proposers, -1, dtype=np.int64)
    prop_of_rev = np.full(arrays.n_reviewers, -1, dtype=np.int64)
    rev_of_prop[p] = r
    prop_of_rev[r] = p
    return rev_of_prop, prop_of_rev


def _is_valid_matching_arrays(arrays: PreferenceArrays, matching: Matching) -> bool:
    indices = _matched_indices(arrays, matching)
    if indices is None:
        return False
    rev_of_prop, _ = indices
    matched = np.flatnonzero(rev_of_prop >= 0)
    return bool(
        (arrays.proposer_rank[matched, rev_of_prop[matched]] != UNRANKED).all()
    )


def _find_blocking_pairs_arrays(
    arrays: PreferenceArrays, matching: Matching
) -> list[tuple[int, int]]:
    """Definition 1 vectorized over the proposer-side edge arrays.

    An edge ``(p, r)`` blocks iff its position in ``p``'s list is ahead
    of ``p``'s current partner (the dummy, at :data:`UNRANKED`, for an
    unmatched proposer) *and* its rank in ``r``'s list is ahead of
    ``r``'s current holder (likewise).  Both tests are single int
    comparisons per edge once the matched ranks are gathered.
    """
    indices = _matched_indices(arrays, matching)
    assert indices is not None, "matching references unknown ids"
    rev_of_prop, prop_of_rev = indices

    # Rank of each side's current partner; the dummy ranks at UNRANKED.
    p_partner_rank = np.full(arrays.n_proposers, np.int64(UNRANKED), dtype=np.int64)
    matched_p = np.flatnonzero(rev_of_prop >= 0)
    if len(matched_p):
        ranks = arrays.proposer_rank[matched_p, rev_of_prop[matched_p]]
        assert (ranks != UNRANKED).all(), "matched pair must be acceptable"
        p_partner_rank[matched_p] = ranks
    r_holder_rank = np.full(arrays.n_reviewers, np.int64(UNRANKED), dtype=np.int64)
    matched_r = np.flatnonzero(prop_of_rev >= 0)
    if len(matched_r):
        r_holder_rank[matched_r] = arrays.reviewer_rank[matched_r, prop_of_rev[matched_r]]

    if arrays.n_pairs == 0:
        return []
    p_owner = np.repeat(
        np.arange(arrays.n_proposers, dtype=np.int64), np.diff(arrays.proposer_indptr)
    )
    edge_pos = np.arange(arrays.n_pairs, dtype=np.int64) - arrays.proposer_indptr[p_owner]
    proposer_prefers = edge_pos < p_partner_rank[p_owner]
    reviewer_prefers = arrays.proposer_list_rank < r_holder_rank[arrays.proposer_list]
    blocking = np.flatnonzero(proposer_prefers & reviewer_prefers)
    pairs = zip(
        arrays.proposer_ids[p_owner[blocking]].tolist(),
        arrays.reviewer_ids[arrays.proposer_list[blocking]].tolist(),
    )
    return sorted(pairs)
