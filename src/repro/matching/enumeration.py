"""Algorithm 2: enumerating all stable matchings.

The paper obtains every stable matching by starting from the
passenger-optimal one (Algorithm 1) and repeatedly *breaking* a matched
pair (sub-algorithm ``BreakDispatch``), guided by three rules:

* **Rule 1** (correctness): a break of ``(r_j, t*)`` succeeds only when
  ``t*`` ends up dispatched to a non-dummy request it strictly prefers
  over ``r_j``.  Until then ``t*`` holds out, refusing every proposal it
  does not prefer over ``r_j``.
* **Rule 2** (no redundancy): the proposal/refusal cascade may only
  involve requests ``r_j'`` with ``j' ≥ j``; needing an earlier request
  makes the break unsuccessful.
* **Rule 3** (efficiency): breaking an unserved request is pointless —
  by Theorem 2 it is unserved in every stable matching.

This is the McVitie–Wilson breakmarriage scheme adapted to unequal sides
with dummy partners.  Two consequences of Theorem 1's dummy-completion
argument shape the cascade:

* A proposal to a taxi that is *undispatched in the source matching*
  dooms the break: the taxi is undispatched in **every** stable matching
  (the taxi-side analogue of Theorem 2), so accepting would strand a
  blocking pair and refusing-and-continuing would leave the proposer
  below a taxi that wants it.  We therefore fail the cascade immediately.
* A request whose preference list is exhausted falls to its dummy, which
  is the paper's explicit failure case (i) in the proof of Theorem 3.

Pointers restart *after the current partner*: in any stable matching a
proposal above one's partner is always refused (it would otherwise be a
blocking pair), so re-proposing there is provably futile.

Correctness is validated in the test suite against brute-force
enumeration (``tests/oracles/brute_force.py``) on thousands of randomized
instances, including the exactly-once property of Theorem 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import EnumerationBudgetError, MatchingError
from repro.matching.deferred_acceptance import deferred_acceptance
from repro.matching.preferences import PreferenceTable
from repro.matching.result import Matching
from repro.resilience.budget import FrameBudget, WorkBudget

__all__ = [
    "break_dispatch",
    "all_stable_matchings",
    "EnumerationStats",
]


@dataclass(slots=True)
class EnumerationStats:
    """Counters describing one enumeration run."""

    break_attempts: int = 0
    break_successes: int = 0
    duplicates: int = 0
    truncated: bool = False
    stable_matchings: int = 0
    nodes: int = 0
    notes: list[str] = field(default_factory=list)


def break_dispatch(
    table: PreferenceTable,
    matching: Matching,
    request_id: int,
    *,
    budget: WorkBudget | None = None,
) -> Matching | None:
    """One ``BreakDispatch`` on stable ``matching`` and request ``request_id``.

    Returns the resulting stable matching, or ``None`` when the break is
    unsuccessful per Rules 1–3.  ``matching`` must be stable; this is not
    re-verified here for speed (the enumerator only feeds stable inputs).

    ``budget`` bounds the cascade: each displaced proposer charges one
    node, and an exhausted budget raises
    :class:`~repro.core.errors.EnumerationBudgetError` (the enumerator
    catches it and returns its anytime result).
    """
    if request_id not in table.proposer_prefs:
        raise MatchingError(f"unknown request id {request_id}")
    t_star = matching.reviewer_of(request_id)
    if t_star is None:
        return None  # Rule 3: r_j is unserved in every stable matching.

    proposer_ranks = table._proposer_ranks()
    reviewer_ranks = table._reviewer_ranks()

    working = matching.as_dict()  # proposer -> reviewer
    holder = {reviewer: proposer for proposer, reviewer in working.items()}
    del working[request_id]
    del holder[t_star]

    # Each displaced proposer resumes just below the partner it lost;
    # the broken request resumes just below t_star.
    pointer: dict[int, int] = {request_id: proposer_ranks[request_id][t_star] + 1}
    t_star_holds_out_rank = reviewer_ranks[t_star][request_id]

    chain: list[int] = [request_id]
    while chain:
        # Bounded-cascade guard: a budgeted cascade stops here rather
        # than running unbounded (and a cascade that could somehow drain
        # its chain falls out of the loop to the typed raise below).
        if budget is not None and not budget.spend():
            raise EnumerationBudgetError(
                f"break cascade for request {request_id} exhausted its work budget",
                nodes=budget.nodes,
            )
        proposer = chain.pop()
        if proposer < request_id:
            return None  # Rule 2: an earlier request would have to propose.
        prefs = table.proposer_prefs[proposer]
        index = pointer.get(proposer)
        if index is None:
            current = matching.reviewer_of(proposer)
            assert current is not None, "only matched requests are displaced"
            index = proposer_ranks[proposer][current] + 1
        while index < len(prefs):
            reviewer = prefs[index]
            index += 1
            if reviewer == t_star:
                # Rule 1: t* holds out for strictly better than r_j.
                if reviewer_ranks[t_star][proposer] < t_star_holds_out_rank:
                    working[proposer] = t_star
                    return Matching(working)
                continue
            occupant = holder.get(reviewer)
            if occupant is None:
                # Undispatched in the source matching: undispatched in every
                # stable matching, so this cascade cannot end stably.
                return None
            ranks = reviewer_ranks[reviewer]
            if ranks[proposer] < ranks[occupant]:
                working[proposer] = reviewer
                holder[reviewer] = proposer
                del working[occupant]
                pointer[proposer] = index
                chain.append(occupant)
                break
        else:
            return None  # Proposer fell to its dummy: failure case (i).
        pointer[proposer] = index
    # Unreachable for stable inputs (every cascade step re-fills the
    # chain or returns, per Theorem 3); typed so a violated invariant
    # surfaces as a budgetable enumeration failure, not a crash.
    raise EnumerationBudgetError(
        "break cascade terminated without resolution",
        nodes=budget.nodes if budget is not None else 0,
    )


def all_stable_matchings(
    table: PreferenceTable,
    *,
    limit: int | None = None,
    with_stats: bool = False,
    max_nodes: int | None = None,
    deadline: FrameBudget | None = None,
    on_budget: str = "truncate",
) -> list[Matching] | tuple[list[Matching], EnumerationStats]:
    """Every stable matching of ``table`` (Algorithm 2).

    The first element is always the passenger-optimal matching.  ``limit``
    caps the number of matchings collected (the enumeration can be
    exponential in adversarial markets); when hit, ``stats.truncated`` is
    set.

    ``max_nodes`` and/or ``deadline`` make the enumeration *anytime*:
    cascade steps and break attempts charge a shared work budget, and
    when it runs out the matchings found so far are returned with
    ``stats.truncated`` set (the prefix is identical to an unbudgeted
    run, which this degrades to when neither bound is given).  Pass
    ``on_budget="raise"`` to get an
    :class:`~repro.core.errors.EnumerationBudgetError` carrying the
    partial lattice instead.

    Theorem 4 promises each stable matching is generated exactly once;
    we still deduplicate defensively and expose the duplicate count in
    the stats so tests can assert it stays zero.
    """
    if on_budget not in ("truncate", "raise"):
        raise MatchingError(f"on_budget must be 'truncate' or 'raise', got {on_budget!r}")
    stats = EnumerationStats()
    budget: WorkBudget | None = None
    if max_nodes is not None or deadline is not None:
        budget = WorkBudget(max_nodes, deadline=deadline)
    optimal = deferred_acceptance(table)
    seen: set[Matching] = {optimal}
    ordered: list[Matching] = [optimal]
    request_ids = sorted(table.proposer_prefs)

    def explore(current: Matching, start_id: int) -> bool:
        """DFS over break operations; returns False when truncated."""
        for rid in request_ids:
            if rid < start_id:
                continue
            if current.reviewer_of(rid) is None:
                continue  # Rule 3
            if budget is not None and not budget.spend():
                stats.truncated = True
                stats.notes.append("work budget exhausted before break attempt")
                return False
            stats.break_attempts += 1
            try:
                produced = break_dispatch(table, current, rid, budget=budget)
            except EnumerationBudgetError:
                stats.truncated = True
                stats.notes.append("work budget exhausted mid-cascade")
                return False
            if produced is None:
                continue
            stats.break_successes += 1
            if produced in seen:
                stats.duplicates += 1
                continue
            seen.add(produced)
            ordered.append(produced)
            if limit is not None and len(ordered) >= limit:
                stats.truncated = True
                return False
            if not explore(produced, rid):
                return False
        return True

    explore(optimal, request_ids[0] if request_ids else 0)
    stats.stable_matchings = len(ordered)
    if budget is not None:
        stats.nodes = budget.nodes
    if stats.truncated and budget is not None and on_budget == "raise":
        raise EnumerationBudgetError(
            f"enumeration exhausted its work budget after {len(ordered)} matchings",
            matchings=ordered,
            nodes=budget.nodes,
        )
    if with_stats:
        return ordered, stats
    return ordered
