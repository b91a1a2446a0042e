"""Bipartite matching baselines from Hanna et al. [3].

Two of the paper's non-sharing comparison algorithms are cost-based
bipartite matchings between requests and taxis:

* **MCBM** — a minimum *total* cost matching of ``min(|R|, |T|)`` pairs
  (solved with the Hungarian algorithm via SciPy);
* **MMCM** — a matching of ``min(|R|, |T|)`` pairs minimizing the
  *maximum* matched cost (threshold search over the sorted distinct
  costs with Hopcroft–Karp feasibility checks).

Both operate on a dense cost matrix ``cost[j][i]`` (request j, taxi i);
``inf`` marks a forbidden pair.  Results come back as (row, col) pairs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import MatchingError
from repro.matching.hopcroft_karp import hopcroft_karp

__all__ = ["min_cost_matching", "minimax_matching", "matching_total_cost"]


def _as_matrix(cost: np.ndarray | list[list[float]]) -> np.ndarray:
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2:
        raise MatchingError(f"cost matrix must be 2-D, got shape {matrix.shape}")
    return matrix


def min_cost_matching(cost: np.ndarray | list[list[float]]) -> list[tuple[int, int]]:
    """Minimum-total-cost matching of as many pairs as feasible.

    Forbidden (``inf``) pairs are never matched; if the instance cannot
    match ``min(rows, cols)`` pairs because of forbidden entries, the
    achievable maximum is matched instead (finite-cost pairs only).
    """
    # Imported on first use: scipy.optimize adds a third of a second to
    # every ``import repro``, and only MCBM calls it.
    from scipy.optimize import linear_sum_assignment

    matrix = _as_matrix(cost)
    if matrix.size == 0:
        return []
    finite = matrix[np.isfinite(matrix)]
    # Substitute forbidden pairs with a cost big enough that the optimizer
    # only uses them when unavoidable, then strip them from the result.
    big = (float(finite.max()) if finite.size else 0.0) + 1.0
    span = max(matrix.shape)
    sentinel = big * (span + 1)
    padded = np.where(np.isfinite(matrix), matrix, sentinel)
    rows, cols = linear_sum_assignment(padded)
    return [
        (int(r), int(c))
        for r, c in zip(rows, cols)
        if math.isfinite(matrix[r, c])
    ]


def minimax_matching(cost: np.ndarray | list[list[float]]) -> list[tuple[int, int]]:
    """A matching of maximum cardinality minimizing the largest matched cost.

    Implementation: the answer is one of the distinct finite costs; find
    the smallest threshold under which a maximum-cardinality matching
    still exists (binary search + Hopcroft–Karp), then return such a
    matching.
    """
    matrix = _as_matrix(cost)
    if matrix.size == 0:
        return []
    finite_costs = np.unique(matrix[np.isfinite(matrix)])
    if finite_costs.size == 0:
        return []

    n_rows, n_cols = matrix.shape

    def matching_under(threshold: float) -> dict[int, int]:
        adjacency = [
            [c for c in range(n_cols) if matrix[r, c] <= threshold] for r in range(n_rows)
        ]
        return hopcroft_karp(n_rows, n_cols, adjacency)

    target = len(matching_under(float(finite_costs[-1])))
    if target == 0:
        return []
    lo, hi = 0, finite_costs.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if len(matching_under(float(finite_costs[mid]))) >= target:
            hi = mid
        else:
            lo = mid + 1
    best = matching_under(float(finite_costs[lo]))
    return sorted((int(r), int(c)) for r, c in best.items())


def matching_total_cost(cost: np.ndarray | list[list[float]], pairs: list[tuple[int, int]]) -> float:
    """Total cost of ``pairs`` under ``cost`` (``inf`` pairs raise)."""
    matrix = _as_matrix(cost)
    total = 0.0
    for r, c in pairs:
        value = float(matrix[r, c])
        if not math.isfinite(value):
            raise MatchingError(f"pair ({r}, {c}) is forbidden")
        total += value
    return total
