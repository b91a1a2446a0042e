"""Dict-table bridge and structural checks for ``PreferenceArrays``.

The runtime builds :class:`~repro.matching.arrays.PreferenceArrays`
directly and never packs a dict table, checks a hand-built instance or
compares two instances field by field; the suites that certify the
array engine against the dict engine do all three.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import PreferenceError
from repro.matching.arrays import UNRANKED, PreferenceArrays
from repro.matching.preferences import PreferenceTable

__all__ = ["arrays_from_table", "arrays_equal", "validate_arrays"]


def arrays_from_table(table: PreferenceTable) -> PreferenceArrays:
    """Pack a dict :class:`PreferenceTable` into arrays.

    Entity order follows the table's dict insertion order, so a round
    trip through :meth:`~repro.matching.arrays.PreferenceArrays.to_table`
    preserves iteration order.  The frame hot path builds arrays
    directly via :func:`repro.matching.preferences.build_nonsharing_arrays`
    without materializing the dicts at all.
    """
    proposer_ids = np.fromiter(table.proposer_prefs, dtype=np.int64, count=len(table.proposer_prefs))
    reviewer_ids = np.fromiter(table.reviewer_prefs, dtype=np.int64, count=len(table.reviewer_prefs))
    p_index = {int(pid): i for i, pid in enumerate(proposer_ids)}
    r_index = {int(rid): i for i, rid in enumerate(reviewer_ids)}

    n_prop, n_rev = len(proposer_ids), len(reviewer_ids)
    proposer_rank = np.full((n_prop, n_rev), UNRANKED, dtype=np.int32)
    reviewer_rank = np.full((n_rev, n_prop), UNRANKED, dtype=np.int32)

    p_indptr = np.zeros(n_prop + 1, dtype=np.int64)
    p_cols: list[int] = []
    for pid, prefs in table.proposer_prefs.items():
        p = p_index[pid]
        for k, rid in enumerate(prefs):
            r = r_index.get(rid)
            if r is None:
                raise PreferenceError(f"proposer {pid} lists unknown reviewer {rid}")
            p_cols.append(r)
            proposer_rank[p, r] = k
        p_indptr[p + 1] = len(prefs)
    np.cumsum(p_indptr, out=p_indptr)

    r_indptr = np.zeros(n_rev + 1, dtype=np.int64)
    r_cols: list[int] = []
    for rid, prefs in table.reviewer_prefs.items():
        r = r_index[rid]
        for k, pid in enumerate(prefs):
            p = p_index.get(pid)
            if p is None:
                raise PreferenceError(f"reviewer {rid} lists unknown proposer {pid}")
            r_cols.append(p)
            reviewer_rank[r, p] = k
        r_indptr[r + 1] = len(prefs)
    np.cumsum(r_indptr, out=r_indptr)

    proposer_list = np.array(p_cols, dtype=np.int32)
    reviewer_list = np.array(r_cols, dtype=np.int32)
    if len(proposer_list) != len(reviewer_list):
        raise PreferenceError(
            "preference lists are not mutually consistent: "
            f"{len(proposer_list)} proposer edges vs {len(reviewer_list)} reviewer edges"
        )
    proposer_owner = np.repeat(np.arange(n_prop), np.diff(p_indptr))
    reviewer_owner = np.repeat(np.arange(n_rev), np.diff(r_indptr))
    proposer_list_rank = reviewer_rank[proposer_list, proposer_owner]
    reviewer_list_rank = proposer_rank[reviewer_list, reviewer_owner]
    if len(proposer_list) and (
        (proposer_list_rank == UNRANKED).any() or (reviewer_list_rank == UNRANKED).any()
    ):
        raise PreferenceError("preference lists are not mutually consistent")
    return PreferenceArrays(
        proposer_ids=proposer_ids,
        reviewer_ids=reviewer_ids,
        proposer_indptr=p_indptr,
        proposer_list=proposer_list,
        proposer_list_rank=proposer_list_rank,
        reviewer_indptr=r_indptr,
        reviewer_list=reviewer_list,
        reviewer_list_rank=reviewer_list_rank,
        proposer_rank=proposer_rank,
        reviewer_rank=reviewer_rank,
    )


def arrays_equal(arrays: PreferenceArrays, other: PreferenceArrays) -> bool:
    """Structural equality, field by field (array-aware)."""
    return all(
        np.array_equal(getattr(arrays, name), getattr(other, name))
        for name in (
            "proposer_ids",
            "reviewer_ids",
            "proposer_indptr",
            "proposer_list",
            "proposer_list_rank",
            "reviewer_indptr",
            "reviewer_list",
            "reviewer_list_rank",
            "proposer_rank",
            "reviewer_rank",
        )
    )


def validate_arrays(arrays: PreferenceArrays) -> None:
    """O(E) consistency check for hand-built instances.

    The trusted builders produce consistent arrays by construction;
    the tests hold them to it with this check.
    """
    n_prop, n_rev = arrays.n_proposers, arrays.n_reviewers
    if arrays.proposer_indptr[0] != 0 or arrays.proposer_indptr[-1] != len(arrays.proposer_list):
        raise PreferenceError("proposer_indptr does not span proposer_list")
    if arrays.reviewer_indptr[0] != 0 or arrays.reviewer_indptr[-1] != len(arrays.reviewer_list):
        raise PreferenceError("reviewer_indptr does not span reviewer_list")
    if len(arrays.proposer_list) != len(arrays.reviewer_list):
        raise PreferenceError("edge counts differ between sides")
    if arrays.proposer_rank.shape != (n_prop, n_rev):
        raise PreferenceError(f"proposer_rank shape {arrays.proposer_rank.shape}")
    if arrays.reviewer_rank.shape != (n_rev, n_prop):
        raise PreferenceError(f"reviewer_rank shape {arrays.reviewer_rank.shape}")
    if len(arrays.proposer_list) and (
        arrays.proposer_list.min() < 0 or arrays.proposer_list.max() >= n_rev
    ):
        raise PreferenceError("proposer_list contains out-of-range reviewer index")
    if len(arrays.reviewer_list) and (
        arrays.reviewer_list.min() < 0 or arrays.reviewer_list.max() >= n_prop
    ):
        raise PreferenceError("reviewer_list contains out-of-range proposer index")
    # Mutual consistency: the edge sets of both sides coincide, and
    # the dense matrices agree with the CSR ranks.
    p_owner = np.repeat(np.arange(n_prop), np.diff(arrays.proposer_indptr))
    r_owner = np.repeat(np.arange(n_rev), np.diff(arrays.reviewer_indptr))
    p_edges = set(zip(p_owner.tolist(), arrays.proposer_list.tolist()))
    r_edges = set(zip(arrays.reviewer_list.tolist(), r_owner.tolist()))
    if p_edges != r_edges:
        diff = sorted(p_edges ^ r_edges)[:5]
        raise PreferenceError(f"sides disagree on acceptable pairs: {diff}")
    if not np.array_equal(arrays.proposer_list_rank, arrays.reviewer_rank[arrays.proposer_list, p_owner]):
        raise PreferenceError("proposer_list_rank disagrees with reviewer_rank")
    if not np.array_equal(arrays.reviewer_list_rank, arrays.proposer_rank[arrays.reviewer_list, r_owner]):
        raise PreferenceError("reviewer_list_rank disagrees with proposer_rank")
