"""Scalar set-packing oracles.

The test oracles of :func:`repro.packing.set_packing.greedy_set_packing`
and :func:`repro.packing.set_packing.local_search_packing`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from repro.core.errors import PackingError
from repro.packing.set_packing import PackingResult, _normalize, verify_packing
from repro.resilience.budget import WorkBudget

__all__ = ["greedy_packing_reference", "local_search_reference"]


def greedy_packing_reference(sets: Sequence[Iterable[int]]) -> PackingResult:
    """The set-comprehension greedy packer: the test oracle of
    :func:`repro.packing.set_packing.greedy_set_packing`."""
    normalized = _normalize(sets)
    # element -> indices of sets containing it
    by_element: dict[int, list[int]] = {}
    for index, s in enumerate(normalized):
        for element in s:
            by_element.setdefault(element, []).append(index)
    conflict = [
        len({other for element in s for other in by_element[element]} - {index})
        for index, s in enumerate(normalized)
    ]
    order = sorted(range(len(normalized)), key=lambda i: (conflict[i], len(normalized[i]), i))
    covered: set[int] = set()
    chosen: list[int] = []
    for index in order:
        if covered & normalized[index]:
            continue
        covered |= normalized[index]
        chosen.append(index)
    chosen.sort()
    return PackingResult(chosen=tuple(chosen), covered=frozenset(covered))


def local_search_reference(
    sets: Sequence[Iterable[int]],
    *,
    initial: Sequence[int] | None = None,
    swap_out: int = 2,
    max_rounds: int = 50,
    budget: WorkBudget | None = None,
) -> PackingResult:
    """The frozenset local search that rescans every set per swap probe:
    the test oracle of :func:`repro.packing.set_packing.local_search_packing`."""
    if swap_out < 0:
        raise PackingError(f"swap_out must be non-negative, got {swap_out}")
    normalized = _normalize(sets)
    chosen = set(initial) if initial is not None else set(greedy_packing_reference(sets).chosen)
    if not verify_packing(sets, sorted(chosen)):
        raise PackingError("initial selection is not a valid packing")
    truncated = False

    def covered_by(indices: Iterable[int]) -> set[int]:
        covered: set[int] = set()
        for index in indices:
            covered |= normalized[index]
        return covered

    for _ in range(max_rounds):
        if budget is not None and not budget.spend():
            truncated = True
            break
        improved = False
        covered = covered_by(chosen)

        # (0, 1)-swaps: free additions.
        for index in range(len(normalized)):
            if index not in chosen and not (normalized[index] & covered):
                chosen.add(index)
                covered |= normalized[index]
                improved = True
        if improved:
            continue

        # (p, p+1)-swaps.
        done = False
        for p in range(1, swap_out + 1):
            for removal in itertools.combinations(sorted(chosen), p):
                if budget is not None and not budget.spend():
                    truncated = True
                    done = True
                    break
                remaining = chosen - set(removal)
                base_cover = covered_by(remaining)
                candidates = [
                    i
                    for i in range(len(normalized))
                    if i not in remaining and not (normalized[i] & base_cover)
                ]
                if len(candidates) <= p:
                    continue
                addition = _find_disjoint_reference(normalized, candidates, p + 1)
                if addition is not None:
                    chosen = remaining | set(addition)
                    improved = True
                    done = True
                    break
            if done:
                break
        if truncated or not improved:
            break

    result = tuple(sorted(chosen))
    return PackingResult(
        chosen=result, covered=frozenset(covered_by(result)), truncated=truncated
    )


def _find_disjoint_reference(
    normalized: list[frozenset[int]], candidates: list[int], count: int
) -> tuple[int, ...] | None:
    """First (by index order) ``count`` pairwise-disjoint candidate sets."""

    def extend(start: int, taken: list[int], covered: frozenset[int]) -> tuple[int, ...] | None:
        if len(taken) == count:
            return tuple(taken)
        for pos in range(start, len(candidates)):
            index = candidates[pos]
            if normalized[index] & covered:
                continue
            found = extend(pos + 1, taken + [index], covered | normalized[index])
            if found is not None:
                return found
        return None

    return extend(0, [], frozenset())
