"""Anytime behaviour of the Algorithm 2 enumeration under work budgets."""

import pytest

from repro.core.errors import EnumerationBudgetError, MatchingError
from repro.matching import (
    all_stable_matchings,
    break_dispatch,
    deferred_acceptance,
)
from repro.matching.preferences import PreferenceTable
from repro.resilience import FrameBudget, WorkBudget


def cyclic_market(n=6):
    """A market with a rich stable-matching lattice (cyclic preferences)."""
    return PreferenceTable(
        proposer_prefs={i: [(i + k) % n for k in range(n)] for i in range(n)},
        reviewer_prefs={j: [(j + k + 1) % n for k in range(n)] for j in range(n)},
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAnytimeEnumeration:
    def test_unbudgeted_path_unchanged(self):
        table = cyclic_market()
        plain = all_stable_matchings(table)
        via_kwargs, stats = all_stable_matchings(table, with_stats=True)
        assert plain == via_kwargs
        assert not stats.truncated
        assert stats.nodes == 0  # no budget attached
        assert stats.duplicates == 0

    def test_max_nodes_truncates_to_a_prefix(self):
        table = cyclic_market()
        full = all_stable_matchings(table)
        assert len(full) > 1
        part, stats = all_stable_matchings(table, with_stats=True, max_nodes=3)
        assert stats.truncated
        assert stats.nodes > 0
        assert 1 <= len(part) < len(full)
        # Anytime contract: the truncated result is a prefix of the
        # untruncated enumeration, passenger-optimal matching first.
        assert part == full[: len(part)]
        assert part[0] == deferred_acceptance(table)

    def test_generous_budget_matches_unbudgeted(self):
        table = cyclic_market()
        full = all_stable_matchings(table)
        budgeted, stats = all_stable_matchings(table, with_stats=True, max_nodes=10**6)
        assert budgeted == full
        assert not stats.truncated
        assert stats.nodes > 0

    def test_on_budget_raise_carries_partial_lattice(self):
        table = cyclic_market()
        with pytest.raises(EnumerationBudgetError) as excinfo:
            all_stable_matchings(table, max_nodes=3, on_budget="raise")
        err = excinfo.value
        assert err.matchings  # the anytime prefix rides on the error
        assert err.matchings[0] == deferred_acceptance(table)
        assert err.nodes > 3

    def test_on_budget_validation(self):
        with pytest.raises(MatchingError):
            all_stable_matchings(cyclic_market(), on_budget="explode")

    def test_deadline_budget_truncates(self):
        clock = FakeClock()
        deadline = FrameBudget(10.0, clock=clock)
        table = cyclic_market()
        clock.now = 11.0  # already past the deadline: first spend fails
        part, stats = all_stable_matchings(table, with_stats=True, deadline=deadline)
        assert stats.truncated
        assert part == [deferred_acceptance(table)]


class TestBreakDispatchBudget:
    def test_budgeted_cascade_raises_typed_error(self):
        """The bounded-cascade guard: a tiny budget stops the proposal
        cascade with a typed error instead of unbounded work."""
        table = cyclic_market()
        matching = deferred_acceptance(table)
        budget = WorkBudget(0)
        with pytest.raises(EnumerationBudgetError) as excinfo:
            break_dispatch(table, matching, 0, budget=budget)
        assert excinfo.value.nodes >= 1
        assert "work budget" in str(excinfo.value)

    def test_unbudgeted_cascade_unchanged(self):
        table = cyclic_market()
        matching = deferred_acceptance(table)
        produced = break_dispatch(table, matching, 0)
        budgeted = break_dispatch(table, matching, 0, budget=WorkBudget(10**6))
        assert produced == budgeted

    def test_unknown_request_still_rejected(self):
        table = cyclic_market()
        with pytest.raises(MatchingError):
            break_dispatch(table, deferred_acceptance(table), 999, budget=WorkBudget(5))
