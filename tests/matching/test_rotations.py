"""Unit tests for the rotation machinery (complete markets)."""

import random

import pytest

from repro.core import MatchingError
from repro.matching import (
    Matching,
    PreferenceTable,
    all_stable_matchings,
    deferred_acceptance,
    is_stable,
    taxi_optimal,
)
from tests.oracles import all_stable_matchings_by_rotations, eliminate_rotation, exposed_rotations
from tests.support import random_table


@pytest.fixture()
def latin_square_table():
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


class TestExposedRotations:
    def test_latin_square_has_one_big_rotation(self, latin_square_table):
        table = latin_square_table
        optimal = deferred_acceptance(table)
        rotations = exposed_rotations(table, optimal)
        assert len(rotations) == 1
        (rotation,) = rotations
        assert len(rotation) == 3
        # Normalized to start at the smallest proposer.
        assert rotation[0][0] == 0

    def test_taxi_optimal_exposes_nothing(self, latin_square_table):
        table = latin_square_table
        assert exposed_rotations(table, taxi_optimal(table)) == []

    def test_unique_matching_market(self):
        table = PreferenceTable(
            proposer_prefs={0: (100, 101), 1: (101, 100)},
            reviewer_prefs={100: (0, 1), 101: (1, 0)},
        )
        assert exposed_rotations(table, deferred_acceptance(table)) == []

    def test_requires_complete_market(self):
        table = PreferenceTable(proposer_prefs={0: (100,), 1: ()}, reviewer_prefs={100: (0,)})
        with pytest.raises(MatchingError):
            exposed_rotations(table, deferred_acceptance(table))


class TestEliminate:
    def test_elimination_moves_down_the_lattice(self, latin_square_table):
        table = latin_square_table
        optimal = deferred_acceptance(table)
        (rotation,) = exposed_rotations(table, optimal)
        produced = eliminate_rotation(optimal, rotation)
        assert produced != optimal
        assert is_stable(table, produced)
        # Every rotating proposer got strictly worse.
        for proposer, old_reviewer in rotation:
            new_reviewer = produced.reviewer_of(proposer)
            assert table.proposer_prefers(proposer, old_reviewer, new_reviewer)

    def test_rejects_stale_rotation(self, latin_square_table):
        table = latin_square_table
        optimal = deferred_acceptance(table)
        (rotation,) = exposed_rotations(table, optimal)
        moved = eliminate_rotation(optimal, rotation)
        with pytest.raises(MatchingError):
            eliminate_rotation(moved, rotation)

    def test_rejects_tiny_rotation(self):
        with pytest.raises(MatchingError):
            eliminate_rotation(Matching({0: 100}), ((0, 100),))


class TestEnumerationCrossValidation:
    def test_matches_algorithm_2_on_random_complete_markets(self):
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randint(1, 6)
            table = random_table(rng, n, n, acceptance=1.0)
            assert set(all_stable_matchings_by_rotations(table)) == set(
                all_stable_matchings(table)
            )

    def test_first_element_is_proposer_optimal(self, latin_square_table):
        matchings = all_stable_matchings_by_rotations(latin_square_table)
        assert matchings[0] == deferred_acceptance(latin_square_table)
        assert len(matchings) == 3
