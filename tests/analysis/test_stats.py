"""Unit tests for the multi-seed statistics helpers."""

import numpy as np
import pytest

from repro.analysis import (
    MetricSummary,
    ordering_consistency,
    summarize_samples,
)


class TestSummarizeSamples:
    def test_known_values(self):
        summary = summarize_samples([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.n == 4
        assert summary.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_single_sample_degenerate_interval(self):
        summary = summarize_samples([7.0])
        assert summary.ci_low == summary.ci_high == 7.0
        assert summary.half_width == 0.0

    def test_interval_contains_true_mean_usually(self):
        rng = np.random.default_rng(0)
        hits = 0
        trials = 200
        for _ in range(trials):
            samples = rng.normal(10.0, 2.0, size=8).tolist()
            summary = summarize_samples(samples, confidence=0.95)
            if summary.ci_low <= 10.0 <= summary.ci_high:
                hits += 1
        assert hits / trials > 0.9

    def test_higher_confidence_wider_interval(self):
        samples = [1.0, 2.0, 3.0, 2.5, 1.5]
        narrow = summarize_samples(samples, confidence=0.8)
        wide = summarize_samples(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_overlaps(self):
        a = MetricSummary(1.0, 0.1, 0.9, 1.1, 5, 0.95)
        b = MetricSummary(1.05, 0.1, 0.95, 1.15, 5, 0.95)
        c = MetricSummary(2.0, 0.1, 1.9, 2.1, 5, 0.95)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    @pytest.mark.parametrize("bad", [[], None])
    def test_rejects_empty(self, bad):
        with pytest.raises((ValueError, TypeError)):
            summarize_samples(bad)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            summarize_samples([1.0, 2.0], confidence=1.5)


class TestOrderingConsistency:
    def test_clear_winner(self):
        wins = ordering_consistency({"x": [1, 1, 1], "y": [2, 2, 2]})
        assert wins == {"x": 1.0, "y": 0.0}

    def test_larger_is_better_mode(self):
        wins = ordering_consistency(
            {"x": [1, 3], "y": [2, 2]}, smaller_is_better=False
        )
        assert wins == {"x": 0.5, "y": 0.5}

    def test_ties_count_for_nobody(self):
        wins = ordering_consistency({"x": [1.0], "y": [1.0]})
        assert wins == {"x": 0.0, "y": 0.0}

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            ordering_consistency({"x": [1.0], "y": [1.0, 2.0]})

    def test_empty(self):
        assert ordering_consistency({}) == {}
