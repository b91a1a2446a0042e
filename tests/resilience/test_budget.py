"""Unit tests for FrameBudget and WorkBudget."""

import math

import pytest

from repro.core.errors import FrameBudgetExceededError
from repro.resilience import FrameBudget, WorkBudget


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestFrameBudget:
    def test_checkpoint_passes_before_deadline(self):
        clock = FakeClock()
        budget = FrameBudget(10.0, clock=clock)
        clock.advance(9.9)
        budget.checkpoint("stage")
        assert budget.checkpoints == 1
        assert not budget.expired()

    def test_checkpoint_raises_past_deadline(self):
        clock = FakeClock()
        budget = FrameBudget(10.0, clock=clock)
        clock.advance(10.5)
        with pytest.raises(FrameBudgetExceededError) as excinfo:
            budget.checkpoint("prefs-built")
        assert excinfo.value.elapsed_s == pytest.approx(10.5)
        assert excinfo.value.budget_s == pytest.approx(10.0)
        assert "prefs-built" in str(excinfo.value)

    def test_elapsed_remaining(self):
        clock = FakeClock(5.0)
        budget = FrameBudget(30.0, clock=clock)
        clock.advance(12.0)
        assert budget.elapsed() == pytest.approx(12.0)
        assert budget.remaining() == pytest.approx(18.0)

    def test_restart_reanchors(self):
        clock = FakeClock()
        budget = FrameBudget(1.0, clock=clock)
        clock.advance(5.0)
        assert budget.expired()
        budget.restart()
        assert not budget.expired()

    def test_extend_to_shares_anchor(self):
        clock = FakeClock()
        budget = FrameBudget(10.0, clock=clock)
        clock.advance(15.0)
        assert budget.expired()
        budget.extend_to(20.0)
        # The anchor is the original start, so only 5 s remain.
        assert budget.remaining() == pytest.approx(5.0)
        assert not budget.expired()

    def test_infinite_budget_never_expires(self):
        clock = FakeClock()
        budget = FrameBudget(math.inf, clock=clock)
        clock.advance(1e9)
        budget.checkpoint()
        assert not budget.expired()

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FrameBudget(-1.0)
        budget = FrameBudget(1.0)
        with pytest.raises(ValueError):
            budget.extend_to(-0.1)

    def test_nan_duration_rejected(self):
        # A nan deadline compares false with every elapsed time, so it
        # would never expire.
        with pytest.raises(ValueError):
            FrameBudget(math.nan)
        budget = FrameBudget(1.0)
        with pytest.raises(ValueError):
            budget.extend_to(math.nan)
        budget.extend_to(math.inf)  # "no deadline" stays legal
        assert budget.duration_s == math.inf


class TestWorkBudget:
    def test_node_cap(self):
        budget = WorkBudget(3)
        assert budget.spend()
        assert budget.spend()
        assert budget.spend()
        assert not budget.spend()
        assert budget.nodes == 4
        assert budget.exhausted

    def test_exhaustion_is_sticky(self):
        budget = WorkBudget(1)
        budget.spend(5)
        assert budget.exhausted
        # Even a zero-cost poll stays exhausted.
        assert not budget.spend(0)

    def test_unbounded_never_exhausts(self):
        budget = WorkBudget()
        assert budget.unbounded
        assert budget.spend(10**6)
        assert not budget.exhausted

    def test_deadline_exhausts_without_raising(self):
        clock = FakeClock()
        frame = FrameBudget(10.0, clock=clock)
        budget = WorkBudget(deadline=frame)
        assert budget.spend()
        clock.advance(11.0)
        assert not budget.spend()
        assert budget.exhausted

    def test_infinite_deadline_counts_as_unbounded(self):
        frame = FrameBudget(math.inf)
        assert WorkBudget(deadline=frame).unbounded
        assert not WorkBudget(5, deadline=frame).unbounded

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            WorkBudget(-1)
