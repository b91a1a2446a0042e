"""Unit tests for Algorithm 2 (all stable matchings)."""

import random

import pytest

from repro.core import MatchingError
from repro.matching import (
    Matching,
    PreferenceTable,
    all_stable_matchings,
    break_dispatch,
    deferred_acceptance,
    is_stable,
)
from tests.oracles import all_stable_matchings_brute_force
from tests.support import random_table


@pytest.fixture()
def latin_square_table():
    # The classic 3x3 instance with three stable matchings.
    return PreferenceTable(
        proposer_prefs={
            0: (100, 101, 102),
            1: (101, 102, 100),
            2: (102, 100, 101),
        },
        reviewer_prefs={
            100: (1, 2, 0),
            101: (2, 0, 1),
            102: (0, 1, 2),
        },
    )


class TestBreakDispatch:
    def test_rule3_unserved_request_fails(self):
        table = PreferenceTable(
            proposer_prefs={0: (100,), 1: (100,)}, reviewer_prefs={100: (0, 1)}
        )
        matching = deferred_acceptance(table)
        assert matching.reviewer_of(1) is None
        assert break_dispatch(table, matching, 1) is None

    def test_unique_stable_matching_cannot_break(self):
        table = PreferenceTable(proposer_prefs={0: (100,)}, reviewer_prefs={100: (0,)})
        matching = deferred_acceptance(table)
        assert break_dispatch(table, matching, 0) is None

    def test_successful_break_yields_new_stable_matching(self, latin_square_table):
        optimal = deferred_acceptance(latin_square_table)
        produced = break_dispatch(latin_square_table, optimal, 0)
        assert produced is not None
        assert produced != optimal
        assert is_stable(latin_square_table, produced)

    def test_unknown_request_raises(self, latin_square_table):
        optimal = deferred_acceptance(latin_square_table)
        with pytest.raises(MatchingError):
            break_dispatch(latin_square_table, optimal, 42)


class TestAllStableMatchings:
    def test_latin_square_has_three(self, latin_square_table):
        matchings = all_stable_matchings(latin_square_table)
        assert len(matchings) == 3
        assert matchings[0] == deferred_acceptance(latin_square_table)
        expected = {
            Matching({0: 100, 1: 101, 2: 102}),  # passenger-optimal
            Matching({0: 102, 1: 100, 2: 101}),  # taxi-optimal
            Matching({0: 101, 1: 102, 2: 100}),  # the median one
        }
        assert set(matchings) == expected

    def test_matches_brute_force_on_random_markets(self):
        rng = random.Random(7)
        for _ in range(200):
            table = random_table(rng, rng.randint(1, 6), rng.randint(1, 6))
            enumerated, stats = all_stable_matchings(table, with_stats=True)
            assert set(enumerated) == set(all_stable_matchings_brute_force(table))
            # Theorem 4: each stable matching produced exactly once.
            assert stats.duplicates == 0

    def test_matched_sets_invariant(self):
        # Theorem 2 and its taxi-side analogue: the served/dispatched sets
        # are identical across all stable matchings.
        rng = random.Random(8)
        for _ in range(80):
            table = random_table(rng, rng.randint(2, 6), rng.randint(2, 6), acceptance=0.5)
            matchings = all_stable_matchings(table)
            proposers = {m.matched_proposers for m in matchings}
            reviewers = {m.matched_reviewers for m in matchings}
            assert len(proposers) == 1
            assert len(reviewers) == 1

    def test_limit_truncates(self, latin_square_table):
        matchings, stats = all_stable_matchings(latin_square_table, limit=2, with_stats=True)
        assert len(matchings) == 2
        assert stats.truncated

    def test_empty_market(self):
        table = PreferenceTable(proposer_prefs={}, reviewer_prefs={})
        assert all_stable_matchings(table) == [Matching({})]

    def test_stats_counters(self, latin_square_table):
        _, stats = all_stable_matchings(latin_square_table, with_stats=True)
        assert stats.stable_matchings == 3
        assert stats.break_successes == 2
        assert stats.break_attempts >= stats.break_successes
