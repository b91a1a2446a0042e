"""Multi-seed statistics: means, confidence intervals, and robust
orderings.

Single-seed comparisons can flip on workload noise; these helpers
summarize an experiment's per-seed values with Student-t confidence
intervals so figure-level claims ("NSTD's taxi dissatisfaction beats
Greedy's") can be asserted with error bars, the way the reproduction
benches use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

__all__ = ["MetricSummary", "summarize_samples", "ordering_consistency"]


@dataclass(frozen=True, slots=True)
class MetricSummary:
    """Mean and a two-sided confidence interval of one metric."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def overlaps(self, other: "MetricSummary") -> bool:
        """Whether the two confidence intervals intersect."""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


def summarize_samples(samples: Sequence[float], confidence: float = 0.95) -> MetricSummary:
    """A Student-t confidence interval over independent samples."""
    if not samples:
        raise ValueError("cannot summarize zero samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return MetricSummary(
            mean=mean, std=0.0, ci_low=mean, ci_high=mean, n=1, confidence=confidence
        )
    # scipy.stats costs most of a second to import and only this quantile
    # needs it, so it loads here rather than with the package.
    from scipy import stats as scipy_stats

    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    t_value = float(scipy_stats.t.ppf((1.0 + confidence) / 2.0, df=n - 1))
    half = t_value * std / math.sqrt(n)
    return MetricSummary(
        mean=mean, std=std, ci_low=mean - half, ci_high=mean + half, n=n, confidence=confidence
    )


def ordering_consistency(
    per_seed_values: Mapping[str, Sequence[float]],
    *,
    smaller_is_better: bool = True,
) -> dict[str, float]:
    """How often each label wins across seeds.

    ``per_seed_values[label][i]`` is label's metric on seed ``i``; the
    result maps each label to the fraction of seeds where it was the
    (strict) best.  Benchmarks assert headline orderings hold on a
    majority of seeds rather than on one lucky draw.
    """
    labels = list(per_seed_values)
    if not labels:
        return {}
    lengths = {len(v) for v in per_seed_values.values()}
    if len(lengths) != 1:
        raise ValueError("all labels need the same number of seeds")
    (n_seeds,) = lengths
    if n_seeds == 0:
        raise ValueError("need at least one seed")
    wins = {label: 0 for label in labels}
    for index in range(n_seeds):
        values = {label: per_seed_values[label][index] for label in labels}
        best = min(values.values()) if smaller_is_better else max(values.values())
        winners = [label for label, value in values.items() if value == best]
        if len(winners) == 1:
            wins[winners[0]] += 1
    return {label: count / n_seeds for label, count in wins.items()}
