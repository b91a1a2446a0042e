"""Unit tests for Algorithm 1 (deferred acceptance with dummies)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching import (
    Matching,
    PreferenceTable,
    all_stable_matchings_brute_force,
    deferred_acceptance,
    is_stable,
)
from repro.matching.arrays import NO_PARTNER
from repro.matching.deferred_acceptance import gale_shapley_rounds
from tests.support import TAXI_ID_BASE, random_table


class TestBasics:
    def test_empty_market(self):
        table = PreferenceTable(proposer_prefs={}, reviewer_prefs={})
        assert deferred_acceptance(table).size == 0

    def test_single_mutual_pair(self):
        table = PreferenceTable(proposer_prefs={0: (100,)}, reviewer_prefs={100: (0,)})
        assert deferred_acceptance(table) == Matching({0: 100})

    def test_unacceptable_stays_unmatched(self):
        table = PreferenceTable(
            proposer_prefs={0: (), 1: (100,)}, reviewer_prefs={100: (1,)}
        )
        matching = deferred_acceptance(table)
        assert matching.reviewer_of(0) is None
        assert matching.reviewer_of(1) == 100

    def test_textbook_instance(self):
        # Classic 3x3 with a known proposer-optimal outcome.
        table = PreferenceTable(
            proposer_prefs={
                0: (100, 101, 102),
                1: (101, 100, 102),
                2: (100, 101, 102),
            },
            reviewer_prefs={
                100: (1, 0, 2),
                101: (0, 1, 2),
                102: (0, 1, 2),
            },
        )
        matching = deferred_acceptance(table)
        assert matching == Matching({0: 100, 1: 101, 2: 102})

    def test_refusal_cascade(self):
        # 1 displaces 0 at reviewer 100; 0 falls to 101.
        table = PreferenceTable(
            proposer_prefs={0: (100, 101), 1: (100,)},
            reviewer_prefs={100: (1, 0), 101: (0,)},
        )
        matching = deferred_acceptance(table)
        assert matching == Matching({0: 101, 1: 100})


class TestStatsAndProperties:
    def test_stats_counters(self):
        table = PreferenceTable(
            proposer_prefs={0: (100, 101), 1: (100,)},
            reviewer_prefs={100: (1, 0), 101: (0,)},
        )
        matching, stats = deferred_acceptance(table, with_stats=True)
        assert stats.matched_pairs == matching.size == 2
        assert stats.proposals >= 2
        assert stats.refusals >= 1

    def test_always_stable_on_random_markets(self):
        rng = random.Random(0)
        for _ in range(150):
            table = random_table(rng, rng.randint(1, 7), rng.randint(1, 7))
            matching = deferred_acceptance(table)
            assert is_stable(table, matching)

    def test_proposer_optimality_against_brute_force(self):
        rng = random.Random(1)
        for _ in range(60):
            table = random_table(rng, rng.randint(1, 5), rng.randint(1, 5))
            matching = deferred_acceptance(table)
            for other in all_stable_matchings_brute_force(table):
                for proposer in table.proposer_prefs:
                    mine = matching.reviewer_of(proposer)
                    theirs = other.reviewer_of(proposer)
                    if mine == theirs:
                        continue
                    # The proposer must weakly prefer its Algorithm-1 partner.
                    assert mine is not None, "optimal match lost a partner"
                    if theirs is not None:
                        assert table.proposer_prefers(proposer, mine, theirs)

    def test_large_adversarial_market_is_iterative(self):
        # Identical proposer lists with reviewers preferring later arrivals
        # maximize displacements (O(n²) proposals); the paper's recursive
        # Proposal/Refusal would hit Python's stack limit long before this.
        n = 600
        reviewers = tuple(range(TAXI_ID_BASE, TAXI_ID_BASE + n))
        table = PreferenceTable(
            proposer_prefs={p: reviewers for p in range(n)},
            reviewer_prefs={r: tuple(range(n - 1, -1, -1)) for r in reviewers},
        )
        matching = deferred_acceptance(table)
        assert matching.size == n
        assert is_stable(table, matching)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_full_acceptance_market_is_perfectly_matched(n):
    rng = random.Random(n)
    table = random_table(rng, n, n, acceptance=1.0)
    assert deferred_acceptance(table).size == n


@st.composite
def csr_markets(draw):
    """A random proposer CSR with both reviewer-key kinds of one market.

    Returns ``(indptr, pref, rank_keys, complex_keys, n_reviewers)``.
    Reviewer scores come from a small lattice so equal scores occur and
    the proposer-id tie-break (the complex keys' imaginary lane) matters.
    """
    n_prop = draw(st.integers(0, 8))
    n_rev = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n_prop, max_size=n_prop, unique=True))
    score = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    edges = {
        (p, r): (draw(st.integers(0, 3)), draw(score))
        for p in range(n_prop)
        for r in range(n_rev)
        if draw(st.booleans())
    }
    # Proposer lists: ascending (proposer score, reviewer); reviewer
    # ranks: ascending (reviewer score, proposer id).
    rank_of = {}
    for r in range(n_rev):
        suitors = sorted((edges[p, r][1], ids[p], p) for p in range(n_prop) if (p, r) in edges)
        rank_of.update({(p, r): k for k, (_, _, p) in enumerate(suitors)})
    indptr = [0]
    pref, rank_keys, complex_keys = [], [], []
    for p in range(n_prop):
        listed = [r for r in range(n_rev) if (p, r) in edges]
        for r in sorted(listed, key=lambda r: (edges[p, r][0], r)):
            pref.append(r)
            rank_keys.append(rank_of[p, r])
            complex_keys.append(complex(edges[p, r][1], ids[p]))
        indptr.append(len(pref))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(pref, dtype=np.int32),
        np.array(rank_keys, dtype=np.int32),
        np.array(complex_keys, dtype=np.complex128),
        n_rev,
    )


@settings(max_examples=200, deadline=None)
@given(csr_markets())
def test_round_kernel_agrees_on_rank_and_complex_keys(market):
    """One kernel, two key kinds: int ranks and ``score + 1j·id`` keys
    encode the same reviewer orders, so every output must agree."""
    indptr, pref, rank_keys, complex_keys, n_rev = market
    by_rank = gale_shapley_rounds(indptr, pref, rank_keys, n_rev)
    by_key = gale_shapley_rounds(indptr, pref, complex_keys, n_rev)
    partner, next_choice, proposals, refusals = by_rank
    assert np.array_equal(partner, by_key[0])
    assert np.array_equal(next_choice, by_key[1])
    assert (proposals, refusals) == (by_key[2], by_key[3])
    matched = np.flatnonzero(partner != NO_PARTNER)
    assert refusals == proposals - matched.size
    # A matched proposer's last proposal is its accepted edge.
    for r in matched.tolist():
        p = int(partner[r])
        assert indptr[p] < next_choice[p] <= indptr[p + 1]
        assert pref[next_choice[p] - 1] == r
