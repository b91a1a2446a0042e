"""Unit tests for preference construction (Section IV-A)."""

import pytest

from repro.core import DispatchConfig, PassengerRequest, PreferenceError, Taxi
from repro.geometry import EuclideanDistance, Point
from repro.matching import PreferenceTable, build_nonsharing_table, passenger_score, taxi_score


@pytest.fixture()
def oracle():
    return EuclideanDistance()


class TestScores:
    def test_passenger_score_is_pickup_distance(self, oracle):
        taxi = Taxi(0, Point(0, 0))
        request = PassengerRequest(1, Point(3, 4), Point(10, 0))
        assert passenger_score(taxi, request, oracle) == pytest.approx(5.0)

    def test_taxi_score_trades_pickup_against_fare(self, oracle):
        taxi = Taxi(0, Point(0, 0))
        request = PassengerRequest(1, Point(3, 4), Point(3, 10))  # trip 6 km
        assert taxi_score(taxi, request, oracle, alpha=1.0) == pytest.approx(5.0 - 6.0)
        assert taxi_score(taxi, request, oracle, alpha=0.5) == pytest.approx(5.0 - 3.0)


class TestBuildNonsharing:
    def test_passenger_prefers_nearest_taxi(self, oracle):
        taxis = [Taxi(0, Point(5, 0)), Taxi(1, Point(1, 0)), Taxi(2, Point(3, 0))]
        requests = [PassengerRequest(0, Point(0, 0), Point(0, 5))]
        table = build_nonsharing_table(taxis, requests, oracle)
        assert table.proposer_prefs[0] == (1, 2, 0)

    def test_taxi_prefers_profitable_requests(self, oracle):
        # Same pickup distance; the longer trip wins for the driver.
        taxis = [Taxi(0, Point(0, 0))]
        requests = [
            PassengerRequest(0, Point(1, 0), Point(2, 0)),   # trip 1 km
            PassengerRequest(1, Point(-1, 0), Point(-9, 0)),  # trip 8 km
        ]
        table = build_nonsharing_table(taxis, requests, oracle)
        assert table.reviewer_prefs[0] == (1, 0)

    def test_passenger_threshold_inserts_dummy(self, oracle):
        taxis = [Taxi(0, Point(1, 0)), Taxi(1, Point(50, 0))]
        requests = [PassengerRequest(0, Point(0, 0), Point(0, 5))]
        config = DispatchConfig(passenger_threshold_km=10.0)
        table = build_nonsharing_table(taxis, requests, oracle, config)
        assert table.proposer_prefs[0] == (0,)
        # Consistency: the far taxi must not list the request either.
        assert table.reviewer_prefs[1] == ()

    def test_taxi_threshold_inserts_dummy(self, oracle):
        taxis = [Taxi(0, Point(10, 0))]
        requests = [
            PassengerRequest(0, Point(0, 0), Point(0.5, 0)),  # score 10 - 0.5 = 9.5
            PassengerRequest(1, Point(9, 0), Point(9, 8)),    # score 1 - 8 = -7
        ]
        config = DispatchConfig(taxi_threshold_km=0.0)
        table = build_nonsharing_table(taxis, requests, oracle, config)
        assert table.reviewer_prefs[0] == (1,)
        assert table.proposer_prefs[0] == ()

    def test_seat_infeasibility_is_mutual(self, oracle):
        taxis = [Taxi(0, Point(0, 0), seats=2)]
        requests = [PassengerRequest(0, Point(1, 0), Point(2, 0), passengers=3)]
        table = build_nonsharing_table(taxis, requests, oracle)
        assert table.proposer_prefs[0] == ()
        assert table.reviewer_prefs[0] == ()

    def test_duplicate_ids_rejected(self, oracle):
        taxis = [Taxi(0, Point(0, 0)), Taxi(0, Point(1, 1))]
        with pytest.raises(PreferenceError):
            build_nonsharing_table(taxis, [], oracle)


class TestPreferenceTable:
    def test_mutual_consistency_enforced(self):
        with pytest.raises(PreferenceError):
            PreferenceTable(proposer_prefs={0: (100,)}, reviewer_prefs={100: ()})

    def test_duplicate_entries_rejected(self):
        with pytest.raises(PreferenceError):
            PreferenceTable(
                proposer_prefs={0: (100, 100)}, reviewer_prefs={100: (0, 0)}
            )

    def test_rank_lookup(self):
        table = PreferenceTable(
            proposer_prefs={0: (101, 100), 1: (100,)},
            reviewer_prefs={100: (1, 0), 101: (0,)},
        )
        assert table.proposer_rank(0, 101) == 0
        assert table.proposer_rank(0, 100) == 1
        assert table.reviewer_rank(100, 1) == 0
        assert table.proposer_rank(1, 101) is None

    def test_prefers_semantics_with_dummies(self):
        table = PreferenceTable(
            proposer_prefs={0: (101, 100)},
            reviewer_prefs={100: (0,), 101: (0,)},
        )
        assert table.proposer_prefers(0, 101, 100)
        assert not table.proposer_prefers(0, 100, 101)
        # Any acceptable partner beats an unacceptable (dummy-side) one.
        assert table.proposer_prefers(0, 100, 999)
        assert not table.proposer_prefers(0, 999, 100)

    def test_reversed_swaps_roles(self):
        table = PreferenceTable(
            proposer_prefs={0: (101, 100)},
            reviewer_prefs={100: (0,), 101: (0,)},
        )
        reverse = table.reversed()
        assert reverse.proposer_prefs == {100: (0,), 101: (0,)}
        assert reverse.reviewer_prefs == {0: (101, 100)}
        # Reversing twice restores the original orientation.
        assert reverse.reversed().proposer_prefs == table.proposer_prefs

    def test_validate_false_skips_consistency_check(self):
        # The vectorized builders emit consistent-by-construction tables
        # and opt out of the O(pairs) check; the flag must actually skip it.
        inconsistent = PreferenceTable(
            proposer_prefs={0: (100,)}, reviewer_prefs={100: ()}, validate=False
        )
        assert inconsistent.proposer_prefs[0] == (100,)
        with pytest.raises(PreferenceError):
            PreferenceTable(proposer_prefs={0: (100,)}, reviewer_prefs={100: ()})

    def test_reversed_seeds_rank_caches(self):
        table = PreferenceTable(
            proposer_prefs={0: (101, 100)},
            reviewer_prefs={100: (0,), 101: (0,)},
        )
        # Force both caches, then reverse: the swapped table must reuse
        # them instead of rebuilding lazily.
        assert table.proposer_rank(0, 100) == 1
        assert table.reviewer_rank(101, 0) == 0
        reverse = table.reversed()
        assert reverse._proposer_rank_cache is table._reviewer_rank_cache
        assert reverse._reviewer_rank_cache is table._proposer_rank_cache
        assert reverse.proposer_rank(100, 0) == 0
