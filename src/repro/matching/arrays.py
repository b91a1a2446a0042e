"""``PreferenceArrays``: the array-native preference representation.

:class:`~repro.matching.preferences.PreferenceTable` is the semantic
reference structure — Python dicts of id tuples — but the frame hot path
(Algorithm 1 at 700×700 scale, every minute of a city day) pays dearly
for it: building per-reviewer rank dicts alone is O(E) dictionary
inserts per frame.  :class:`PreferenceArrays` is the same market in flat
NumPy arrays:

* both sides' preference orders in CSR form (``proposer_indptr`` /
  ``proposer_list`` and the reviewer mirror), entries best-first,
  ``int32`` partner *indices* (not ids — ids live in ``proposer_ids`` /
  ``reviewer_ids``);
* per-edge cross ranks (``proposer_list_rank[e]`` is the rank of the
  *proposing* side's member in the listed reviewer's own order), which
  is all deferred acceptance needs for its refusal test — no rank dict,
  no dense lookup in the inner loop;
* dense rank matrices (``reviewer_rank[r, p]`` / ``proposer_rank[p,
  r]``) for vectorized stability verification, with the **dummy
  sentinel** :data:`UNRANKED` marking unacceptable pairs.

**Rank-matrix refusal convention.**  Ranks are positions in the
acceptable prefix of a preference order (0 = best).  The implicit dummy
partner of Theorem 1 sits at rank :data:`UNRANKED` (``int32`` max): an
unmatched reviewer "holds" its dummy, so the acceptance test for a
proposal arriving with edge rank ``k`` is uniformly ``k <
current_rank`` — against a real holder and against the dummy alike.
Unacceptable pairs (behind the dummy on either side) never appear in
the CSR lists and carry :data:`UNRANKED` in both dense matrices.

``reversed()`` swaps the two sides by *relabeling fields only* — no
array is copied — which is what makes the taxi-proposing NSTD-T fast
path zero-copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.preferences import PreferenceTable

__all__ = ["PreferenceArrays", "UNRANKED", "NO_PARTNER"]

#: Dummy-partner rank sentinel: every acceptable partner ranks strictly
#: below this, so ``rank < UNRANKED`` is exactly "preferred to the dummy".
UNRANKED: int = np.iinfo(np.int32).max

#: Engine sentinel for "matched to the dummy" (no partner held).
NO_PARTNER: int = -1


@dataclass(frozen=True, slots=True)
class PreferenceArrays:
    """A mutually consistent preference market in flat arrays.

    Attributes
    ----------
    proposer_ids / reviewer_ids:
        ``int64`` original entity ids; position in these arrays is the
        index every other field speaks in.
    proposer_indptr / proposer_list:
        CSR preference orders: proposer ``p``'s acceptable reviewers are
        ``proposer_list[proposer_indptr[p]:proposer_indptr[p+1]]``,
        best first.  The implicit dummy sits at the end of each segment.
    proposer_list_rank:
        Aligned with ``proposer_list``: the rank of proposer ``p`` in
        the *listed reviewer's* order — the only cross-side data the
        proposer-side deferred-acceptance loop touches.
    reviewer_indptr / reviewer_list / reviewer_list_rank:
        The mirror structure for reviewers (used when taxis propose).
    proposer_rank / reviewer_rank:
        Dense ``(P, R)`` / ``(R, P)`` ``int32`` rank matrices with
        :data:`UNRANKED` for unacceptable pairs; the vectorized
        stability check runs on these.
    """

    proposer_ids: np.ndarray
    reviewer_ids: np.ndarray
    proposer_indptr: np.ndarray
    proposer_list: np.ndarray
    proposer_list_rank: np.ndarray
    reviewer_indptr: np.ndarray
    reviewer_list: np.ndarray
    reviewer_list_rank: np.ndarray
    proposer_rank: np.ndarray
    reviewer_rank: np.ndarray

    # -- basic shape -------------------------------------------------------

    @property
    def n_proposers(self) -> int:
        """Number of proposer rows in the market."""
        return len(self.proposer_ids)

    @property
    def n_reviewers(self) -> int:
        """Number of reviewer rows in the market."""
        return len(self.reviewer_ids)

    @property
    def n_pairs(self) -> int:
        """Number of mutually acceptable pairs (CSR edges per side)."""
        return len(self.proposer_list)

    # -- role reversal -----------------------------------------------------

    def reversed(self) -> "PreferenceArrays":
        """The same market with roles swapped — a pure field relabeling.

        No array is copied; the reviewer-side CSR becomes the proposer
        CSR and the dense matrices trade places.  Deferred acceptance on
        the result is reviewer-optimal for this market.
        """
        return PreferenceArrays(
            proposer_ids=self.reviewer_ids,
            reviewer_ids=self.proposer_ids,
            proposer_indptr=self.reviewer_indptr,
            proposer_list=self.reviewer_list,
            proposer_list_rank=self.reviewer_list_rank,
            reviewer_indptr=self.proposer_indptr,
            reviewer_list=self.proposer_list,
            reviewer_list_rank=self.proposer_list_rank,
            proposer_rank=self.reviewer_rank,
            reviewer_rank=self.proposer_rank,
        )

    # -- conversions -------------------------------------------------------

    def to_table(self) -> PreferenceTable:
        """Unpack into the dict :class:`PreferenceTable` (scores omitted).

        The arrays are consistent by construction, so the table skips
        its own consistency check.
        """
        proposer_prefs: dict[int, tuple[int, ...]] = {}
        rid_list = self.reviewer_ids.tolist()
        pid_list = self.proposer_ids.tolist()
        p_indptr = self.proposer_indptr.tolist()
        p_cols = self.proposer_list.tolist()
        for p, pid in enumerate(pid_list):
            proposer_prefs[pid] = tuple(
                rid_list[r] for r in p_cols[p_indptr[p] : p_indptr[p + 1]]
            )
        reviewer_prefs: dict[int, tuple[int, ...]] = {}
        r_indptr = self.reviewer_indptr.tolist()
        r_cols = self.reviewer_list.tolist()
        for r, rid in enumerate(rid_list):
            reviewer_prefs[rid] = tuple(
                pid_list[p] for p in r_cols[r_indptr[r] : r_indptr[r + 1]]
            )
        return PreferenceTable(
            proposer_prefs=proposer_prefs, reviewer_prefs=reviewer_prefs, validate=False
        )
