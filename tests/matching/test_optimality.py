"""Unit tests for optimality selection (Property 2, Section IV-D)."""

import random

import pytest

from repro.core import PassengerRequest
from repro.geometry import EuclideanDistance, Point
from repro.matching import (
    PreferenceTable,
    all_stable_matchings,
    company_revenue,
    passenger_optimal,
    rank_profile,
    taxi_optimal,
)
from tests.oracles import taxi_optimal_exact
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


class TestDuality:
    def test_passenger_optimal_is_taxi_pessimal(self, latin_square_table):
        table = latin_square_table
        p_best = passenger_optimal(table)
        t_best = taxi_optimal(table)
        p_rank_p, p_rank_t = rank_profile(table, p_best)
        t_rank_p, t_rank_t = rank_profile(table, t_best)
        # Property 2: among all stable matchings the passenger-optimal one
        # gives requests their best ranks and taxis their worst.
        assert p_rank_p < t_rank_p
        assert p_rank_t > t_rank_t

    def test_fast_path_equals_exact(self):
        rng = random.Random(3)
        for _ in range(120):
            table = random_table(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert taxi_optimal(table) == taxi_optimal_exact(table)

    def test_rank_extremes_over_lattice(self, latin_square_table):
        table = latin_square_table
        lattice = all_stable_matchings(table)
        p_ranks = [rank_profile(table, m)[0] for m in lattice]
        t_ranks = [rank_profile(table, m)[1] for m in lattice]
        assert rank_profile(table, passenger_optimal(table))[0] == min(p_ranks)
        assert rank_profile(table, taxi_optimal(table))[1] == min(t_ranks)

    def test_rank_profile_empty(self):
        table = PreferenceTable(proposer_prefs={0: ()}, reviewer_prefs={})
        assert rank_profile(table, passenger_optimal(table)) == (0.0, 0.0)


class TestCompanySelection:
    def _requests(self):
        return [
            PassengerRequest(0, Point(0, 0), Point(5, 0)),
            PassengerRequest(1, Point(1, 0), Point(1, 3)),
            PassengerRequest(2, Point(2, 0), Point(2, 1)),
        ]

    def test_company_revenue_sums_served_trips(self):
        oracle = EuclideanDistance()
        requests = self._requests()
        from repro.matching import Matching

        revenue = company_revenue(Matching({0: 100, 2: 101}), requests, oracle)
        assert revenue == pytest.approx(5.0 + 1.0)

    def test_revenue_constant_across_lattice(self, latin_square_table):
        # All stable matchings serve the same requests (Theorem 2), so
        # revenue is constant across the lattice.
        oracle = EuclideanDistance()
        requests = self._requests()
        lattice = all_stable_matchings(latin_square_table)
        assert len(lattice) == 3
        for matching in lattice:
            assert company_revenue(matching, requests, oracle) == pytest.approx(
                sum(r.trip_distance(oracle) for r in requests)
            )

    def test_taxi_optimal_exact_requires_matchings(self):
        table = PreferenceTable(proposer_prefs={}, reviewer_prefs={})
        # Even an empty market has the empty stable matching.
        assert taxi_optimal_exact(table).size == 0
