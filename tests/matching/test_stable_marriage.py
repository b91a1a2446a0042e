"""Unit tests for classic Gale–Shapley and the Theorem 1 completion."""

import random

import pytest

from repro.core import PreferenceError
from repro.matching import deferred_acceptance
from tests.oracles import complete_with_dummies, gale_shapley, project_completed_matching
from tests.support import random_table


class TestGaleShapley:
    def test_textbook_example(self):
        proposer_prefs = {0: [10, 11, 12], 1: [11, 10, 12], 2: [10, 11, 12]}
        reviewer_prefs = {10: [1, 0, 2], 11: [0, 1, 2], 12: [0, 1, 2]}
        assert gale_shapley(proposer_prefs, reviewer_prefs) == {0: 10, 1: 11, 2: 12}

    def test_single_pair(self):
        assert gale_shapley({0: [10]}, {10: [0]}) == {0: 10}

    def test_rejects_unequal_sides(self):
        with pytest.raises(PreferenceError):
            gale_shapley({0: [10], 1: [10]}, {10: [0, 1]})

    def test_rejects_incomplete_lists(self):
        with pytest.raises(PreferenceError):
            gale_shapley({0: [10], 1: [10]}, {10: [0, 1], 11: [0, 1]})

    def test_result_is_perfect_matching(self):
        rng = random.Random(2)
        n = 8
        proposer_prefs = {p: rng.sample(range(10, 10 + n), n) for p in range(n)}
        reviewer_prefs = {r: rng.sample(range(n), n) for r in range(10, 10 + n)}
        matching = gale_shapley(proposer_prefs, reviewer_prefs)
        assert sorted(matching) == list(range(n))
        assert sorted(matching.values()) == list(range(10, 10 + n))

    def test_no_blocking_pair(self):
        rng = random.Random(3)
        n = 7
        proposer_prefs = {p: rng.sample(range(10, 10 + n), n) for p in range(n)}
        reviewer_prefs = {r: rng.sample(range(n), n) for r in range(10, 10 + n)}
        matching = gale_shapley(proposer_prefs, reviewer_prefs)
        p_rank = {p: {r: k for k, r in enumerate(prefs)} for p, prefs in proposer_prefs.items()}
        r_rank = {r: {p: k for k, p in enumerate(prefs)} for r, prefs in reviewer_prefs.items()}
        partner_of_reviewer = {r: p for p, r in matching.items()}
        for p in range(n):
            for r in range(10, 10 + n):
                if matching[p] == r:
                    continue
                blocks = (
                    p_rank[p][r] < p_rank[p][matching[p]]
                    and r_rank[r][p] < r_rank[r][partner_of_reviewer[r]]
                )
                assert not blocks


class TestTheoremOneCompletion:
    def test_completion_has_square_shape(self):
        rng = random.Random(4)
        table = random_table(rng, 3, 5)
        proposer_prefs, reviewer_prefs = complete_with_dummies(table)
        assert len(proposer_prefs) == len(reviewer_prefs) == 3 + 5
        size = 3 + 5
        assert all(len(prefs) == size for prefs in proposer_prefs.values())
        assert all(len(prefs) == size for prefs in reviewer_prefs.values())

    def test_projection_matches_thresholded_algorithm(self):
        # Theorem 1's construction: GS on the completed market, projected
        # back, must equal Algorithm 1 on the thresholded market.
        rng = random.Random(5)
        for _ in range(60):
            table = random_table(rng, rng.randint(1, 5), rng.randint(1, 5))
            completed = gale_shapley(*complete_with_dummies(table))
            projected = project_completed_matching(completed)
            assert projected == deferred_acceptance(table)

    def test_projection_drops_dummy_pairs(self):
        rng = random.Random(6)
        table = random_table(rng, 2, 4, acceptance=0.4)
        completed = gale_shapley(*complete_with_dummies(table))
        projected = project_completed_matching(completed)
        real_proposers = set(table.proposer_prefs)
        real_reviewers = set(table.reviewer_prefs)
        for p, r in projected.pairs:
            assert p in real_proposers
            assert r in real_reviewers
