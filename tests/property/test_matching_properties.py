"""Property-based tests of the matching core's invariants.

Hypothesis generates random preference markets (unequal sides, partial
acceptability, arbitrary orders) and checks the theorems the paper
relies on: stability of Algorithm 1's output, its proposer-optimality,
completeness and exactly-once-ness of Algorithm 2 against brute force,
Theorem 2's matched-set invariance, and the taxi-optimal fast path.
"""

from hypothesis import given, settings, strategies as st

from repro.matching import (
    PreferenceTable,
    all_stable_matchings,
    deferred_acceptance,
    find_blocking_pairs,
    is_stable,
    taxi_optimal,
)
from tests.oracles import all_stable_matchings_brute_force, taxi_optimal_exact

REVIEWER_BASE = 1000


@st.composite
def preference_tables(draw, max_side=5):
    n_proposers = draw(st.integers(min_value=1, max_value=max_side))
    n_reviewers = draw(st.integers(min_value=1, max_value=max_side))
    proposers = list(range(n_proposers))
    reviewers = list(range(REVIEWER_BASE, REVIEWER_BASE + n_reviewers))
    pairs = []
    for p in proposers:
        for r in reviewers:
            if draw(st.booleans()):
                pairs.append((p, r))
    proposer_prefs = {}
    for p in proposers:
        acceptable = [r for (pp, r) in pairs if pp == p]
        proposer_prefs[p] = tuple(draw(st.permutations(acceptable))) if acceptable else ()
    reviewer_prefs = {}
    for r in reviewers:
        acceptable = [p for (p, rr) in pairs if rr == r]
        reviewer_prefs[r] = tuple(draw(st.permutations(acceptable))) if acceptable else ()
    return PreferenceTable(proposer_prefs=proposer_prefs, reviewer_prefs=reviewer_prefs)


@settings(max_examples=150, deadline=None)
@given(preference_tables())
def test_deferred_acceptance_is_stable(table):
    matching = deferred_acceptance(table)
    assert find_blocking_pairs(table, matching) == []


@settings(max_examples=150, deadline=None)
@given(preference_tables())
def test_matched_pairs_are_mutually_acceptable(table):
    matching = deferred_acceptance(table)
    for proposer, reviewer in matching.pairs:
        assert table.mutually_acceptable(proposer, reviewer)


@settings(max_examples=100, deadline=None)
@given(preference_tables(max_side=4))
def test_enumeration_matches_brute_force_exactly_once(table):
    enumerated, stats = all_stable_matchings(table, with_stats=True)
    brute = all_stable_matchings_brute_force(table)
    assert set(enumerated) == set(brute)
    assert len(enumerated) == len(brute)  # no duplicates in the list
    assert stats.duplicates == 0


@settings(max_examples=100, deadline=None)
@given(preference_tables(max_side=4))
def test_every_enumerated_matching_is_stable(table):
    for matching in all_stable_matchings(table):
        assert is_stable(table, matching)


@settings(max_examples=100, deadline=None)
@given(preference_tables(max_side=4))
def test_proposer_optimality(table):
    optimal = deferred_acceptance(table)
    for other in all_stable_matchings(table):
        for proposer in table.proposer_prefs:
            mine = optimal.reviewer_of(proposer)
            theirs = other.reviewer_of(proposer)
            if mine == theirs:
                continue
            assert mine is not None
            if theirs is not None:
                assert table.proposer_prefers(proposer, mine, theirs)


@settings(max_examples=100, deadline=None)
@given(preference_tables(max_side=4))
def test_matched_sets_invariant_across_lattice(table):
    # Theorem 2 + its taxi analogue (rural hospitals).
    matchings = all_stable_matchings(table)
    first = matchings[0]
    for matching in matchings[1:]:
        assert matching.matched_proposers == first.matched_proposers
        assert matching.matched_reviewers == first.matched_reviewers


@settings(max_examples=100, deadline=None)
@given(preference_tables(max_side=4))
def test_taxi_optimal_fast_path_matches_exact(table):
    assert taxi_optimal(table) == taxi_optimal_exact(table)


@settings(max_examples=100, deadline=None)
@given(preference_tables(max_side=5))
def test_all_matchings_same_size(table):
    # Size invariance follows from the matched-set invariance.
    sizes = {m.size for m in all_stable_matchings(table)}
    assert len(sizes) == 1
