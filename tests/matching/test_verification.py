"""Unit tests for the stability verifier (Definition 1)."""

import pytest

from repro.core import UnstableMatchingError
from repro.matching import (
    Matching,
    PreferenceTable,
    assert_stable,
    find_blocking_pairs,
    is_stable,
    is_valid_matching,
)
from tests.oracles import arrays_from_table


@pytest.fixture()
def square_table():
    # Two proposers, two reviewers, everyone acceptable.
    return PreferenceTable(
        proposer_prefs={0: (100, 101), 1: (100, 101)},
        reviewer_prefs={100: (0, 1), 101: (0, 1)},
    )


class TestBlockingPairs:
    def test_stable_matching_has_none(self, square_table):
        assert find_blocking_pairs(square_table, Matching({0: 100, 1: 101})) == []

    def test_detects_classic_block(self, square_table):
        # 0 and 100 prefer each other over their partners.
        blocking = find_blocking_pairs(square_table, Matching({0: 101, 1: 100}))
        assert (0, 100) in blocking

    def test_unmatched_acceptable_pair_blocks(self):
        # Dummy semantics: both would rather be together than unmatched.
        table = PreferenceTable(proposer_prefs={0: (100,)}, reviewer_prefs={100: (0,)})
        assert find_blocking_pairs(table, Matching({})) == [(0, 100)]

    def test_unmatched_reviewer_blocks_with_badly_matched_proposer(self, square_table):
        # 1 matched to its second choice while 100 sits free.
        blocking = find_blocking_pairs(square_table, Matching({1: 101}))
        assert (1, 100) in blocking

    def test_unacceptable_pair_never_blocks(self):
        table = PreferenceTable(
            proposer_prefs={0: (), 1: (100,)}, reviewer_prefs={100: (1,)}
        )
        assert find_blocking_pairs(table, Matching({1: 100})) == []

    def test_results_sorted(self, square_table):
        blocking = find_blocking_pairs(square_table, Matching({}))
        assert blocking == sorted(blocking)


class TestValidity:
    def test_unknown_ids_invalid(self, square_table):
        assert not is_valid_matching(square_table, Matching({9: 100}))
        assert not is_valid_matching(square_table, Matching({0: 999}))

    def test_unacceptable_pair_invalid(self):
        table = PreferenceTable(
            proposer_prefs={0: (), 1: (100,)}, reviewer_prefs={100: (1,)}
        )
        assert not is_valid_matching(table, Matching({0: 100}))


class TestAssertStable:
    def test_passes_on_stable(self, square_table):
        assert_stable(square_table, Matching({0: 100, 1: 101}))

    def test_raises_with_blocking_pairs_attached(self, square_table):
        with pytest.raises(UnstableMatchingError) as excinfo:
            assert_stable(square_table, Matching({}))
        assert excinfo.value.blocking_pairs

    def test_raises_on_invalid(self, square_table):
        with pytest.raises(UnstableMatchingError, match="unacceptable or unknown"):
            assert_stable(square_table, Matching({0: 999}))

    def test_is_stable_shortcut(self, square_table):
        assert is_stable(square_table, Matching({0: 100, 1: 101}))
        assert not is_stable(square_table, Matching({0: 101, 1: 100}))


class TestArrayPath:
    """The array verifier answers as the dict verifier does, on a market
    whose ids are neither contiguous nor listed in ascending order."""

    TABLE = PreferenceTable(
        proposer_prefs={5: (300, 100), 2: (100,), 9: (200, 300, 100)},
        reviewer_prefs={300: (9, 5), 100: (2, 9, 5), 200: (9,)},
    )

    @pytest.mark.parametrize(
        "pairs",
        [
            {},
            {5: 300, 2: 100, 9: 200},
            {5: 100, 9: 300},
            {2: 100},
            {5: 200},
            {7: 100},
            {5: 999},
        ],
    )
    def test_verdicts_equal_the_dict_path(self, pairs):
        arrays = arrays_from_table(self.TABLE)
        matching = Matching(pairs)
        assert is_valid_matching(arrays, matching) == is_valid_matching(self.TABLE, matching)
        if is_valid_matching(self.TABLE, matching):
            assert find_blocking_pairs(arrays, matching) == find_blocking_pairs(
                self.TABLE, matching
            )
