"""Unit tests for the Greedy / MCBM / MMCM baselines."""

import math

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch import (
    GreedyNearestDispatcher,
    MinCostDispatcher,
    MinimaxDispatcher,
)
from repro.geometry import EuclideanDistance, Point


@pytest.fixture()
def oracle():
    return EuclideanDistance()


def random_frame(seed, n_taxis=7, n_requests=9):
    rng = np.random.default_rng(seed)
    taxis = [Taxi(i, Point(*rng.normal(0, 4, 2))) for i in range(n_taxis)]
    requests = [
        PassengerRequest(j, Point(*rng.normal(0, 4, 2)), Point(*rng.normal(0, 4, 2)))
        for j in range(n_requests)
    ]
    return taxis, requests


def pickup_costs(schedule, taxis, requests, oracle):
    taxi_by_id = {t.taxi_id: t for t in taxis}
    request_by_id = {r.request_id: r for r in requests}
    return [
        oracle.distance(taxi_by_id[tid].location, request_by_id[rid].pickup)
        for rid, tid in schedule.taxi_of.items()
    ]


class TestGreedy:
    def test_first_request_gets_nearest_taxi(self, oracle):
        taxis = [Taxi(0, Point(5, 0)), Taxi(1, Point(1, 0))]
        requests = [PassengerRequest(0, Point(0, 0), Point(0, 5))]
        schedule = GreedyNearestDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
        assert schedule.taxi_of == {0: 1}

    def test_serves_in_arrival_order(self, oracle):
        # Both requests want taxi 1; the earlier id gets it.
        taxis = [Taxi(0, Point(10, 0)), Taxi(1, Point(0, 0))]
        requests = [
            PassengerRequest(0, Point(1, 0), Point(5, 0)),
            PassengerRequest(1, Point(0.5, 0), Point(5, 0)),
        ]
        schedule = GreedyNearestDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
        assert schedule.taxi_of[0] == 1

    def test_threshold_leaves_far_requests_queued(self, oracle):
        taxis = [Taxi(0, Point(0, 0))]
        requests = [PassengerRequest(0, Point(50, 0), Point(51, 0))]
        config = DispatchConfig(passenger_threshold_km=10.0)
        schedule = GreedyNearestDispatcher(oracle, config).dispatch(taxis, requests)
        assert schedule.assignments == []

    def test_seat_widening(self, oracle):
        taxis = [Taxi(0, Point(0.1, 0), seats=1), Taxi(1, Point(5, 0), seats=4)]
        requests = [PassengerRequest(0, Point(0, 0), Point(1, 0), passengers=3)]
        schedule = GreedyNearestDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
        assert schedule.taxi_of == {0: 1}

    def test_distance_tie_breaks_toward_smaller_taxi_id(self, oracle):
        # Ids compare as numbers: 9 < 10 (their reprs sort the other way).
        taxis = [Taxi(10, Point(1, 0)), Taxi(9, Point(-1, 0))]
        requests = [PassengerRequest(0, Point(0, 0), Point(0, 5))]
        schedule = GreedyNearestDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
        assert schedule.taxi_of == {0: 9}

    def test_matches_bruteforce_nearest(self, oracle):
        for seed in range(5):
            taxis, requests = random_frame(seed)
            schedule = GreedyNearestDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
            # Replay the greedy policy naively.
            available = {t.taxi_id: t for t in taxis}
            expected = {}
            for r in sorted(requests, key=lambda r: r.request_id):
                if not available:
                    break
                best = min(
                    available.values(),
                    key=lambda t: (oracle.distance(t.location, r.pickup), t.taxi_id),
                )
                expected[r.request_id] = best.taxi_id
                del available[best.taxi_id]
            assert schedule.taxi_of == expected


class TestMinCost:
    def test_minimizes_total_cost(self, oracle):
        for seed in range(5):
            taxis, requests = random_frame(seed)
            greedy = GreedyNearestDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
            mincost = MinCostDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
            assert sum(pickup_costs(mincost, taxis, requests, oracle)) <= sum(
                pickup_costs(greedy, taxis, requests, oracle)
            ) + 1e-9

    def test_matches_min_cardinality(self, oracle):
        taxis, requests = random_frame(1, n_taxis=4, n_requests=9)
        schedule = MinCostDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
        assert len(schedule.assignments) == 4

    def test_respects_threshold(self, oracle):
        taxis = [Taxi(0, Point(0, 0))]
        requests = [PassengerRequest(0, Point(50, 0), Point(51, 0))]
        config = DispatchConfig(passenger_threshold_km=10.0)
        assert MinCostDispatcher(oracle, config).dispatch(taxis, requests).assignments == []

    def test_empty_inputs(self, oracle):
        dispatcher = MinCostDispatcher(oracle, DispatchConfig())
        assert dispatcher.dispatch([], []).assignments == []


class TestMinimax:
    def test_minimizes_maximum_cost(self, oracle):
        for seed in range(5):
            taxis, requests = random_frame(seed)
            mincost = MinCostDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
            minimax = MinimaxDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
            assert max(pickup_costs(minimax, taxis, requests, oracle)) <= max(
                pickup_costs(mincost, taxis, requests, oracle)
            ) + 1e-9

    def test_same_cardinality_as_mincost(self, oracle):
        for seed in range(3):
            taxis, requests = random_frame(seed, n_taxis=5, n_requests=8)
            mincost = MinCostDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
            minimax = MinimaxDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
            assert len(minimax.assignments) == len(mincost.assignments)

    def test_seat_feasibility(self, oracle):
        taxis = [Taxi(0, Point(0, 0), seats=1)]
        requests = [PassengerRequest(0, Point(1, 0), Point(2, 0), passengers=4)]
        schedule = MinimaxDispatcher(oracle, DispatchConfig()).dispatch(taxis, requests)
        assert schedule.assignments == []
