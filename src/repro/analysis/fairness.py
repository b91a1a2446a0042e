"""Driver-income fairness metrics.

The paper's whole premise is that O2O drivers are independent agents
whose interests the dispatcher must respect.  Beyond the per-ride taxi
dissatisfaction the paper plots, a fleet-level question follows
naturally: how *evenly* does a dispatch policy spread income over
drivers?  These helpers compute standard inequality measures over the
simulator's per-taxi statistics.

* :func:`gini` — the Gini coefficient (0 = perfectly even, →1 = one
  driver takes everything);
* :func:`jain_index` — Jain's fairness index (1 = even, 1/n = one
  winner);
* :func:`driver_income_report` — per-algorithm income fairness table
  data from simulation results.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.simulation.engine import SimulationResult

__all__ = ["gini", "jain_index", "driver_income_report"]


def gini(values: Sequence[float]) -> float:
    """The Gini coefficient of non-negative ``values``.

    Uses the sorted-rank formula ``G = (2·Σ i·x_(i) / (n·Σx)) − (n+1)/n``
    with 1-based ranks.  All-zero input returns 0 (perfect equality of
    nothing).
    """
    if not values:
        raise ValueError("cannot compute the Gini coefficient of no values")
    if any(v < 0 for v in values):
        raise ValueError("Gini coefficient requires non-negative values")
    ordered = sorted(values)
    n = len(ordered)
    total = sum(ordered)
    if total <= 0.0:  # all-zero input (values are validated non-negative)
        return 0.0
    weighted = sum(rank * value for rank, value in enumerate(ordered, start=1))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)``; 1 means perfectly even."""
    if not values:
        raise ValueError("cannot compute Jain's index of no values")
    if any(v < 0 for v in values):
        raise ValueError("Jain's index requires non-negative values")
    peak = max(values)
    if peak <= 0.0:  # all-zero input (values are validated non-negative)
        return 1.0
    # The index is scale-free; dividing by the peak keeps the squares out
    # of the subnormal range, where tiny inputs lost enough precision to
    # push the index past 1.
    scaled = [v / peak for v in values]
    total = sum(scaled)
    return (total * total) / (len(values) * sum(v * v for v in scaled))


def driver_income_report(
    results: Mapping[str, SimulationResult],
) -> dict[str, dict[str, float]]:
    """Income-fairness summary per algorithm.

    Keys per algorithm: mean and Gini of per-driver revenue, Jain index,
    mean paid-distance ratio, and the share of drivers who earned
    nothing all day.
    """
    report: dict[str, dict[str, float]] = {}
    for name, result in results.items():
        stats = list(result.taxi_stats.values())
        if not stats:
            report[name] = {
                "mean_revenue_km": 0.0,
                "revenue_gini": 0.0,
                "revenue_jain": 1.0,
                "mean_paid_ratio": 0.0,
                "idle_driver_share": 0.0,
            }
            continue
        revenues = [s.revenue_km for s in stats]
        report[name] = {
            "mean_revenue_km": sum(revenues) / len(revenues),
            "revenue_gini": gini(revenues),
            "revenue_jain": jain_index(revenues),
            "mean_paid_ratio": sum(s.paid_ratio for s in stats) / len(stats),
            "idle_driver_share": sum(1 for r in revenues if r <= 0.0) / len(revenues),
        }
    return report
