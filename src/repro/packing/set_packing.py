"""Maximum Set Packing (Algorithm 3, line 2).

The sharing stage packs passenger requests into disjoint feasible
groups, maximizing the *number of packed groups* (Eqs. 1–3).  Three
solvers with one interface (each takes groups as sequences of frozen
member-id sets and returns chosen indices):

* :func:`greedy_set_packing` — pick sets in order of least conflict;
  the classic baseline.
* :func:`local_search_packing` — greedy followed by (p, p+1)-swap local
  search, the Hurkens–Schrijver scheme behind the paper's cited
  ``(max_k |c_k| + 2)/3`` approximation regime [21].
* :func:`exact_set_packing` — branch-and-bound, exponential but exact;
  ground truth for tests and the core of the ILP baseline.

All solvers are deterministic: ties break by set index.

The local search runs on ``int`` bitmasks and finds each swap probe's
candidates through buckets: chosen sets are disjoint, so a set fits
beside ``chosen − removal`` exactly when every chosen set it meets lies
in ``removal``.  It chooses what a scan of every set per probe chooses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.core.errors import PackingError
from repro.resilience.budget import WorkBudget

__all__ = [
    "PackingResult",
    "greedy_set_packing",
    "local_search_packing",
    "exact_set_packing",
    "verify_packing",
]


@dataclass(frozen=True, slots=True)
class PackingResult:
    """Chosen set indices plus the elements they cover.

    ``truncated`` marks a best-so-far *anytime* result: a work budget ran
    out before the solver finished, so the packing is valid but possibly
    smaller than the solver would otherwise return.
    """

    chosen: tuple[int, ...]
    covered: frozenset[int]
    truncated: bool = False

    @property
    def size(self) -> int:
        return len(self.chosen)


def _normalize(sets: Sequence[Iterable[int]]) -> list[frozenset[int]]:
    normalized = [frozenset(s) for s in sets]
    for index, s in enumerate(normalized):
        if not s:
            raise PackingError(f"set {index} is empty")
    return normalized


def verify_packing(sets: Sequence[Iterable[int]], chosen: Sequence[int]) -> bool:
    """Whether ``chosen`` indices form a valid (pairwise disjoint) packing."""
    normalized = _normalize(sets)
    covered: set[int] = set()
    for index in chosen:
        if not 0 <= index < len(normalized):
            return False
        if covered & normalized[index]:
            return False
        covered |= normalized[index]
    return len(set(chosen)) == len(chosen)


def greedy_set_packing(sets: Sequence[Iterable[int]]) -> PackingResult:
    """Greedy maximum set packing: least-conflicting sets first.

    Sets are taken in increasing order of (conflict degree, size, index),
    skipping any that overlap the packing so far.  Conflict degree counts
    how many other sets share an element — picking low-conflict sets
    first preserves the most future choices.
    """
    normalized = _normalize(sets)
    # element -> indices of sets containing it
    by_element: dict[int, list[int]] = {}
    for index, s in enumerate(normalized):
        for element in s:
            by_element.setdefault(element, []).append(index)
    # Every set lists itself under each of its elements: minus one.
    conflict = [len(set().union(*[by_element[element] for element in s])) - 1 for s in normalized]
    order = sorted(range(len(normalized)), key=lambda i: (conflict[i], len(normalized[i]), i))
    covered: set[int] = set()
    chosen: list[int] = []
    for index in order:
        if not covered.isdisjoint(normalized[index]):
            continue
        covered |= normalized[index]
        chosen.append(index)
    chosen.sort()
    return PackingResult(chosen=tuple(chosen), covered=frozenset(covered))


def local_search_packing(
    sets: Sequence[Iterable[int]],
    *,
    initial: Sequence[int] | None = None,
    swap_out: int = 2,
    max_rounds: int = 50,
    budget: WorkBudget | None = None,
) -> PackingResult:
    """Greedy + (p, p+1)-swap local search for ``p ≤ swap_out``.

    Repeatedly augments: add any disjoint unused set (a (0,1)-swap), or
    remove ``p`` chosen sets and insert ``p+1`` pairwise-disjoint new
    ones.  With ``swap_out = 2`` this is the local-search regime that
    yields the cited (k+2)/3 ratio for k-set packing; rounds are capped
    defensively, though convergence is typically immediate.

    ``budget`` charges one node per swap probe; an exhausted budget stops
    the search and returns the current (always valid) packing with
    ``truncated`` set — the anytime behaviour the frame deadline relies
    on.
    """
    if swap_out < 0:
        raise PackingError(f"swap_out must be non-negative, got {swap_out}")
    normalized = _normalize(sets)
    masks = _bitmasks(normalized)
    chosen = set(initial) if initial is not None else set(greedy_set_packing(sets).chosen)
    if not verify_packing(sets, sorted(chosen)):
        raise PackingError("initial selection is not a valid packing")
    truncated = False

    for _ in range(max_rounds):
        if budget is not None and not budget.spend():
            truncated = True
            break
        improved = False
        covered = 0
        for index in chosen:
            covered |= masks[index]

        # (0, 1)-swaps: free additions.
        for index, mask in enumerate(masks):
            if index not in chosen and not (mask & covered):
                chosen.add(index)
                covered |= mask
                improved = True
        if improved:
            continue

        # (p, p+1)-swaps.  The chosen sets are disjoint, so a set fits
        # beside ``chosen − removal`` exactly when every chosen set it
        # meets is in ``removal``: bucket the sets by the chosen sets
        # they meet, and a removal's candidates are the buckets of its
        # non-empty subsets, in index order.
        owner = {element: j for j in chosen for element in normalized[j]}
        fits: dict[frozenset[int], list[int]] = {}
        for index, members in enumerate(normalized):
            met = frozenset([owner[e] for e in members if e in owner])
            if len(met) <= swap_out:
                fits.setdefault(met, []).append(index)
        done = False
        for p in range(1, swap_out + 1):
            for removal in itertools.combinations(sorted(chosen), p):
                if budget is not None and not budget.spend():
                    truncated = True
                    done = True
                    break
                candidates = sorted(
                    index
                    for k in range(1, p + 1)
                    for part in itertools.combinations(removal, k)
                    for index in fits.get(frozenset(part), ())
                )
                if len(candidates) <= p:
                    continue
                addition = _find_disjoint(masks, candidates, p + 1)
                if addition is not None:
                    chosen = (chosen - set(removal)) | set(addition)
                    improved = True
                    done = True
                    break
            if done:
                break
        if truncated or not improved:
            break

    result = tuple(sorted(chosen))
    covered_elements: set[int] = set()
    for index in result:
        covered_elements |= normalized[index]
    return PackingResult(chosen=result, covered=frozenset(covered_elements), truncated=truncated)


def _bitmasks(normalized: list[frozenset[int]]) -> list[int]:
    """Each set as an ``int`` bitmask, one bit per distinct element."""
    bit: dict[int, int] = {}
    masks: list[int] = []
    for members in normalized:
        mask = 0
        for element in members:
            mask |= bit.setdefault(element, 1 << len(bit))
        masks.append(mask)
    return masks


def _find_disjoint(
    masks: list[int], candidates: list[int], count: int
) -> tuple[int, ...] | None:
    """First (by index order) ``count`` pairwise-disjoint candidate sets."""
    last = len(candidates)

    def extend(start: int, taken: list[int], covered: int) -> tuple[int, ...] | None:
        need = count - len(taken)
        if need == 0:
            return tuple(taken)
        # Positions past last − need cannot supply ``need`` more sets.
        for pos in range(start, last - need + 1):
            index = candidates[pos]
            if masks[index] & covered:
                continue
            found = extend(pos + 1, taken + [index], covered | masks[index])
            if found is not None:
                return found
        return None

    return extend(0, [], 0)


def exact_set_packing(
    sets: Sequence[Iterable[int]],
    *,
    node_limit: int = 2_000_000,
    budget: WorkBudget | None = None,
) -> PackingResult:
    """Exact maximum set packing by branch-and-bound.

    Branches on include/exclude in index order with an optimistic bound
    (remaining sets all packable).  ``node_limit`` guards against
    adversarial inputs; exceeding it raises :class:`PackingError` rather
    than silently returning a suboptimal answer.

    ``budget`` is the cooperative alternative: when it exhausts, the
    search stops and the best packing found so far is returned with
    ``truncated`` set (a valid anytime answer — the incumbent is always
    a pairwise-disjoint selection).
    """
    normalized = _normalize(sets)
    n = len(normalized)
    best: list[tuple[int, ...]] = [()]
    nodes = 0
    stopped = False

    # The exclude branch is a loop (not a recursive call) so recursion
    # depth is bounded by the packing size, never by the set count.
    def branch(index: int, taken: list[int], covered: frozenset[int]) -> None:
        nonlocal nodes, stopped
        if len(taken) > len(best[0]):
            best[0] = tuple(taken)
        while index < n and not stopped:
            nodes += 1
            if nodes > node_limit:
                raise PackingError(f"branch-and-bound exceeded {node_limit} nodes")
            if budget is not None and not budget.spend():
                stopped = True
                return
            # Optimistic bound: every remaining set could be packed.
            if len(taken) + (n - index) <= len(best[0]):
                return
            if not (normalized[index] & covered):
                taken.append(index)
                branch(index + 1, taken, covered | normalized[index])
                taken.pop()
            index += 1

    branch(0, [], frozenset())
    chosen = best[0]
    covered: set[int] = set()
    for i in chosen:
        covered |= normalized[i]
    return PackingResult(chosen=chosen, covered=frozenset(covered), truncated=stopped)
