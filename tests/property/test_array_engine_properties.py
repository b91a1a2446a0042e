"""Property tests: the array engine is bit-identical to the dict oracle.

Hypothesis generates random preference markets and random geometric
frames and asserts the array deferred-acceptance engine agrees with the
retained dict reference on *everything* observable: the matching, the
proposal/refusal counters (McVitie–Wilson order-independence makes them
engine-invariant, see the module docstring of
``repro.matching.deferred_acceptance``), the unserved set, and the
stability verdicts.  Degenerate markets — an empty side, all-empty
preference lists — and dummy-threshold boundary frames (candidates at
*exactly* the threshold distance) are exercised explicitly.
"""

from hypothesis import given, settings, strategies as st

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.geometry import EuclideanDistance, Point
from repro.matching import (
    PreferenceTable,
    build_nonsharing_arrays,
    build_nonsharing_table,
    deferred_acceptance_arrays,
    deferred_acceptance_dict,
    find_blocking_pairs,
    is_stable,
)
from tests.oracles import arrays_equal, arrays_from_table, validate_arrays

ORACLE = EuclideanDistance()
REVIEWER_BASE = 1000


@st.composite
def preference_tables(draw, max_side=5, min_side=1):
    n_proposers = draw(st.integers(min_value=min_side, max_value=max_side))
    n_reviewers = draw(st.integers(min_value=min_side, max_value=max_side))
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


@st.composite
def geometric_frames(draw):
    """Small taxi/request frames on an integer grid.

    Integer coordinates make Euclidean distances along an axis exact,
    so together with integer thresholds the strategy regularly produces
    candidates at *exactly* the dummy threshold — the boundary the
    builders must agree on (``<=`` keeps the pair, ``>`` drops it).
    """
    n_taxis = draw(st.integers(min_value=0, max_value=6))
    n_requests = draw(st.integers(min_value=0, max_value=6))
    coord = st.integers(min_value=-4, max_value=4)
    taxis = [
        Taxi(i, Point(float(draw(coord)), float(draw(coord)))) for i in range(n_taxis)
    ]
    requests = [
        PassengerRequest(
            j,
            Point(float(draw(coord)), float(draw(coord))),
            Point(float(draw(coord)), float(draw(coord))),
        )
        for j in range(n_requests)
    ]
    inf = float("inf")
    passenger_threshold = draw(st.sampled_from([inf, 1.0, 2.0, 3.0]))
    taxi_threshold = draw(st.sampled_from([inf, 0.0, 1.0, 4.0]))
    config = DispatchConfig(
        passenger_threshold_km=passenger_threshold, taxi_threshold_km=taxi_threshold
    )
    return taxis, requests, config


def _run_both(table):
    arrays = arrays_from_table(table)
    matching_dict, stats_dict = deferred_acceptance_dict(table, with_stats=True)
    matching_array, stats_array = deferred_acceptance_arrays(arrays, with_stats=True)
    return matching_dict, stats_dict, matching_array, stats_array


@settings(max_examples=200, deadline=None)
@given(preference_tables())
def test_array_engine_matches_dict_engine(table):
    matching_dict, stats_dict, matching_array, stats_array = _run_both(table)
    assert matching_dict.pairs == matching_array.pairs
    assert stats_dict == stats_array


@settings(max_examples=150, deadline=None)
@given(preference_tables())
def test_unserved_sets_agree(table):
    matching_dict, _, matching_array, _ = _run_both(table)
    proposers = set(table.proposer_prefs)
    assert (
        proposers - matching_dict.matched_proposers
        == proposers - matching_array.matched_proposers
    )


@settings(max_examples=150, deadline=None)
@given(preference_tables(max_side=4))
def test_verification_agrees_across_representations(table):
    arrays = arrays_from_table(table)
    matching = deferred_acceptance_arrays(arrays)
    assert is_stable(table, matching) and is_stable(arrays, matching)
    assert find_blocking_pairs(table, matching) == find_blocking_pairs(arrays, matching)


@settings(max_examples=150, deadline=None)
@given(geometric_frames())
def test_builders_agree_including_threshold_boundaries(frame):
    taxis, requests, config = frame
    table = build_nonsharing_table(taxis, requests, ORACLE, config)
    direct = build_nonsharing_arrays(taxis, requests, ORACLE, config)
    packed = arrays_from_table(table)
    assert arrays_equal(direct, packed)
    validate_arrays(direct)
    # And the engines agree on the geometric market too.
    matching_dict, stats_dict = deferred_acceptance_dict(table, with_stats=True)
    matching_array, stats_array = deferred_acceptance_arrays(direct, with_stats=True)
    assert matching_dict.pairs == matching_array.pairs
    assert stats_dict == stats_array


@settings(max_examples=100, deadline=None)
@given(preference_tables())
def test_round_trip_table_arrays_table(table):
    arrays = arrays_from_table(table)
    back = arrays.to_table()
    assert back.proposer_prefs == table.proposer_prefs
    assert back.reviewer_prefs == table.reviewer_prefs


def test_empty_sides_and_empty_lists():
    cases = [
        PreferenceTable(proposer_prefs={}, reviewer_prefs={}),
        PreferenceTable(proposer_prefs={0: ()}, reviewer_prefs={}),
        PreferenceTable(proposer_prefs={}, reviewer_prefs={1000: ()}),
        PreferenceTable(proposer_prefs={0: (), 1: ()}, reviewer_prefs={1000: (), 1001: ()}),
    ]
    for table in cases:
        matching_dict, stats_dict, matching_array, stats_array = _run_both(table)
        assert matching_dict.pairs == matching_array.pairs == frozenset()
        assert stats_dict == stats_array
        assert stats_dict.proposals == stats_dict.refusals == 0
