"""Algorithm 1: non-sharing taxi dispatch via deferred acceptance.

This is the paper's passenger-proposing Gale–Shapley variant with dummy
partners.  Each passenger request proposes down its preference order
(sub-algorithm *Proposal*); a taxi holds its best proposal so far and
refuses the rest (sub-algorithm *Refusal*); a request whose list is
exhausted falls to its dummy partner and stays unserved.

The paper presents the cascade recursively; we run it with an explicit
work stack so deep refusal chains cannot overflow Python's recursion
limit.  The result is the **passenger-optimal** stable matching
(Property 2), and by Theorem 2 its unserved requests are unserved in
every stable matching.

Two engines implement the identical algorithm:

* the **dict engine** (:func:`deferred_acceptance_dict`) runs on
  :class:`~repro.matching.preferences.PreferenceTable` and is the
  retained semantic reference;
* the **array engine** (:func:`deferred_acceptance_arrays`) runs on
  :class:`~repro.matching.arrays.PreferenceArrays` with flat
  ``next_choice`` / ``partner`` / ``best`` arrays and the per-edge
  cross-rank refusal test — no rank dictionaries are ever built, which
  is where the dict engine spends most of a frame.  It executes in
  **batched proposal rounds**: every free proposer proposes to its next
  choice at once, and each reviewer keeps the best suitor via one
  vectorized min-reduction.

The rounds live in one kernel, :func:`gale_shapley_rounds`, generic
over the reviewer-side key of each edge: int ranks on cold frames,
complex ``score + 1j·id`` keys on the warm frames of
:mod:`repro.matching.warm_frame`.  Every NSTD-P and NSTD-T frame, cold
or warm, is matched by this one loop.

The two engines run different proposal *orders* yet are bit-identical
in matching *and* counters, which the property suite asserts.  Both
facts are the McVitie–Wilson order-independence of deferred acceptance:
under any execution order the algorithm makes the same *set* of
proposals (hence equal proposal counters and, by Property 2, the same
proposer-optimal matching), and every proposal is either held when the
algorithm stops or refused exactly once — immediately, or later by
displacement — so refusal counters agree too (``refusals = proposals −
matched`` in both engines).

Complexity: O(|R|·|T|) proposals, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.arrays import NO_PARTNER, PreferenceArrays
from repro.matching.preferences import PreferenceTable
from repro.matching.result import Matching

__all__ = [
    "deferred_acceptance",
    "deferred_acceptance_dict",
    "deferred_acceptance_arrays",
    "gale_shapley_rounds",
    "DeferredAcceptanceStats",
]


@dataclass(frozen=True, slots=True)
class DeferredAcceptanceStats:
    """Counters describing one deferred-acceptance run."""

    proposals: int
    refusals: int
    matched_pairs: int


def deferred_acceptance(
    table: PreferenceTable | PreferenceArrays, *, with_stats: bool = False
) -> Matching | tuple[Matching, DeferredAcceptanceStats]:
    """Run Algorithm 1 and return the proposer-optimal matching.

    Dispatches on the input representation: a
    :class:`~repro.matching.arrays.PreferenceArrays` instance runs on
    the array engine (the frame fast path), a
    :class:`~repro.matching.preferences.PreferenceTable` on the dict
    reference engine.  Both produce identical matchings and counters.

    Parameters
    ----------
    table:
        Mutually consistent preference lists (dummies are implicit list
        ends), in either representation.
    with_stats:
        When true, also return proposal/refusal counters.
    """
    if isinstance(table, PreferenceArrays):
        return deferred_acceptance_arrays(table, with_stats=with_stats)
    return deferred_acceptance_dict(table, with_stats=with_stats)


def deferred_acceptance_dict(
    table: PreferenceTable, *, with_stats: bool = False
) -> Matching | tuple[Matching, DeferredAcceptanceStats]:
    """The retained dict-based reference engine (the oracle in tests)."""
    # next_choice[p] = index of the next entry p will propose to.
    next_choice: dict[int, int] = {p: 0 for p in table.proposer_prefs}
    current_partner: dict[int, int] = {}  # reviewer -> proposer currently held
    engaged_to: dict[int, int] = {}  # proposer -> reviewer currently holding it

    reviewer_ranks = table._reviewer_ranks()  # cached rank maps; hot path

    proposals = 0
    refusals = 0

    # Requests propose "one by one" (Algorithm 1, lines 20-21); a refusal
    # pushes the refused request back onto the stack (line 14/16).
    stack: list[int] = sorted(table.proposer_prefs, reverse=True)
    while stack:
        proposer = stack.pop()
        prefs = table.proposer_prefs[proposer]
        while next_choice[proposer] < len(prefs):
            reviewer = prefs[next_choice[proposer]]
            next_choice[proposer] += 1
            proposals += 1
            holder = current_partner.get(reviewer)
            if holder is None:
                # Refusal lines 10-11: an undispatched taxi accepts any
                # proposer it prefers over its dummy; every entry in the
                # preference list is above the dummy by construction.
                current_partner[reviewer] = proposer
                engaged_to[proposer] = reviewer
                break
            ranks = reviewer_ranks[reviewer]
            if ranks[proposer] < ranks[holder]:
                # Refusal lines 12-14: keep the preferred proposer, push
                # the displaced one back to Proposal.
                current_partner[reviewer] = proposer
                engaged_to[proposer] = reviewer
                del engaged_to[holder]
                refusals += 1
                stack.append(holder)
                break
            refusals += 1  # line 16: proposer is refused, tries next entry
        # Falling out of the while means the proposer reached its dummy
        # (Proposal lines 6-7) and stays unserved.

    matching = Matching(engaged_to)
    if with_stats:
        stats = DeferredAcceptanceStats(
            proposals=proposals, refusals=refusals, matched_pairs=matching.size
        )
        return matching, stats
    return matching


def deferred_acceptance_arrays(
    arrays: PreferenceArrays, *, with_stats: bool = False
) -> Matching | tuple[Matching, DeferredAcceptanceStats]:
    """The array engine: Algorithm 1 in batched proposal rounds.

    State is three flat arrays indexed by entity position —
    ``next_choice[p]`` (cursor into the proposer's CSR segment),
    ``partner[r]`` (:data:`NO_PARTNER` means the dummy) and ``best[r]``,
    the rank at which the reviewer accepted its held proposer
    (:data:`~repro.matching.arrays.UNRANKED` for the dummy).  Each
    round, every free proposer with entries left proposes to its next
    choice at once; ``np.minimum.at`` folds the proposals into ``best``
    so a reviewer keeps exactly the suitor it prefers over everything it
    has seen, dummy included (ranks within a reviewer's list are unique,
    so the round's winner is the proposal whose rank equals the reduced
    value).  Refused proposers and displaced holders form the next
    round's free pool.  Nothing is hashed and no rank structure is built
    at run time; the rounds are :func:`gale_shapley_rounds` fed the
    per-edge ranks as keys.

    By McVitie–Wilson order-independence this produces the identical
    matching and counters as the sequential dict engine (see the module
    docstring).
    """
    current_partner, _, proposals, refusals = gale_shapley_rounds(
        arrays.proposer_indptr,
        arrays.proposer_list,
        arrays.proposer_list_rank,
        arrays.n_reviewers,
    )

    proposer_ids = arrays.proposer_ids
    reviewer_ids = arrays.reviewer_ids
    matched_reviewers = np.flatnonzero(current_partner != NO_PARTNER)
    matched_proposers = current_partner[matched_reviewers]
    matching = Matching(
        {
            int(proposer_ids[p]): int(reviewer_ids[r])
            for p, r in zip(matched_proposers.tolist(), matched_reviewers.tolist())
        }
    )
    if with_stats:
        stats = DeferredAcceptanceStats(
            proposals=proposals, refusals=refusals, matched_pairs=matching.size
        )
        return matching, stats
    return matching


def gale_shapley_rounds(
    indptr: np.ndarray,
    pref: np.ndarray,
    keys: np.ndarray,
    n_reviewers: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The batched-round Gale–Shapley kernel over a raw proposer CSR.

    ``indptr``/``pref`` is the proposer-side CSR (each segment in the
    proposer's preference order); ``keys[e]`` is the listed reviewer's
    key for the edge's proposer — smaller is better, unique among one
    reviewer's suitors.  Two key kinds feed it:

    * int ranks (``proposer_list_rank``, the rank of the proposer inside
      the reviewer's own list) on cold frames;
    * complex ``score + 1j·proposer_id`` keys on warm frames.  NumPy
      orders complex values lexicographically, so the smallest key is
      exactly the suitor a ``(score, id)``-sorted list ranks best.

    The dummy partner's key is the largest value of the key dtype
    (``inf`` for float and complex keys), so any listed suitor beats it.
    Equal reviewer orders therefore traverse equal rounds whatever the
    key kind: the matching and counters are bit-identical.

    Returns ``(partner, next_choice, proposals, refusals)``.
    ``partner[r]`` is the proposer *position* reviewer ``r`` holds
    (:data:`NO_PARTNER` for the dummy).  A proposer stops proposing the
    moment it is accepted and resumes only when displaced, so for every
    proposer matched at termination ``next_choice[p] - 1`` is the CSR
    index of its *accepted* edge.  This is the entire array engine
    minus id translation, shared by :func:`deferred_acceptance_arrays`
    and the warm frame solver in :mod:`repro.matching.warm_frame`.
    """
    n_prop = len(indptr) - 1
    next_choice = indptr[:-1].copy()  # each cursor starts at its CSR segment
    ends = indptr[1:]
    partner = np.full(n_reviewers, NO_PARTNER, dtype=np.int64)
    dummy = np.iinfo(keys.dtype).max if np.issubdtype(keys.dtype, np.integer) else np.inf
    best = np.full(n_reviewers, dummy, dtype=keys.dtype)

    proposals = 0
    refusals = 0

    free = np.arange(n_prop, dtype=np.int64)
    while free.size:
        # Proposers whose list is exhausted fall to their dummy and drop
        # out unserved (Proposal lines 6-7).
        active = free[next_choice[free] < ends[free]]
        if active.size == 0:
            break
        edges = next_choice[active]
        # Native-width indices keep the scatter/gathers below cast-free.
        reviewers = pref[edges].astype(np.intp, copy=False)
        offered = keys[edges]
        next_choice[active] += 1
        proposals += int(active.size)
        # Refusal lines 10-14, one reduction for the whole round: each
        # proposed-to reviewer's held key drops to its best incoming
        # offer; the unique proposal achieving it is accepted.
        np.minimum.at(best, reviewers, offered)
        won = offered == best[reviewers]
        winners = active[won]
        win_reviewers = reviewers[won]
        holders = partner[win_reviewers]
        displaced = holders[holders != NO_PARTNER]
        partner[win_reviewers] = winners
        # Line 16 (immediate refusals) plus line 14 (displacements).
        refusals += int(active.size - winners.size) + int(displaced.size)
        free = np.concatenate((active[~won], displaced))

    return partner, next_choice, proposals, refusals
