"""Unit tests for route length and cheapest insertion.

RAII and SARP insert through :meth:`TaxiPlan.quote`; under a θ large
enough to admit every position its quote is the unconstrained cheapest
insertion, which these tests pin.
"""

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, RouteStop, Taxi
from repro.dispatch.sharing import TaxiPlan
from repro.geometry import EuclideanDistance, Point
from repro.routing import optimal_shared_route, route_length

#: Every member detour fits, so ``quote`` searches all positions.
UNBOUNDED_THETA = DispatchConfig(theta_km=1e9)


@pytest.fixture()
def oracle():
    return EuclideanDistance()


def request(rid, sx, sy, dx, dy):
    return PassengerRequest(rid, Point(sx, sy), Point(dx, dy))


def stops_of(requests, oracle):
    return optimal_shared_route(requests, oracle).stops


def quote_insertion(base, new, oracle, start):
    """The quote for ``new`` on a taxi at ``start`` already routing ``base``."""
    stops = stops_of(base, oracle) if base else ()
    plan = TaxiPlan(taxi=Taxi(0, start), requests=list(base), stops=stops)
    return plan.quote(new, oracle, UNBOUNDED_THETA)


class TestRouteLength:
    def test_empty_route(self, oracle):
        assert route_length([], oracle) == 0.0

    def test_with_start(self, oracle):
        stops = (
            RouteStop(1, True, Point(1, 0)),
            RouteStop(1, False, Point(3, 0)),
        )
        assert route_length(stops, oracle, start=Point(0, 0)) == pytest.approx(3.0)


class TestBestInsertion:
    def test_insert_into_empty_route(self, oracle):
        result = quote_insertion([], request(1, 1, 0, 2, 0), oracle, Point(0, 0))
        assert result.added_km == pytest.approx(2.0)
        assert [s.is_pickup for s in result.stops] == [True, False]

    def test_optimal_among_all_positions(self, oracle):
        rng = np.random.default_rng(0)
        for _ in range(25):
            base = [
                request(i, *rng.uniform(-4, 4, 2), *rng.uniform(-4, 4, 2))
                for i in range(1, 3)
            ]
            stops = stops_of(base, oracle)
            new = request(9, *rng.uniform(-4, 4, 2), *rng.uniform(-4, 4, 2))
            start = Point(*rng.uniform(-4, 4, 2))
            result = quote_insertion(base, new, oracle, start)

            # Reference: try every (i, j) pair by hand.
            pickup = RouteStop(9, True, new.pickup)
            dropoff = RouteStop(9, False, new.dropoff)
            base_len = route_length(stops, oracle, start=start)
            best = min(
                route_length(
                    list(stops[:i]) + [pickup] + list(stops[i:j]) + [dropoff] + list(stops[j:]),
                    oracle,
                    start=start,
                )
                - base_len
                for i in range(len(stops) + 1)
                for j in range(i, len(stops) + 1)
            )
            assert result.added_km == pytest.approx(best)

    def test_preserves_existing_order(self, oracle):
        base = [request(1, 0, 0, 4, 0), request(2, 1, 0, 3, 0)]
        stops = stops_of(base, oracle)
        result = quote_insertion(base, request(9, 1.5, 0, 2.5, 0), oracle, Point(0, 0))
        survivors = [
            (s.request_id, s.is_pickup) for s in result.stops if s.request_id != 9
        ]
        assert survivors == [(s.request_id, s.is_pickup) for s in stops]

    def test_pickup_before_dropoff(self, oracle):
        base = [request(1, 0, 0, 4, 0)]
        result = quote_insertion(base, request(9, 1, 1, 2, 1), oracle, Point(0, 0))
        positions = {
            (s.request_id, s.is_pickup): k for k, s in enumerate(result.stops)
        }
        assert positions[(9, True)] < positions[(9, False)]

    def test_nonnegative_added_distance_for_metric(self, oracle):
        rng = np.random.default_rng(1)
        for _ in range(20):
            base = [request(1, *rng.uniform(-4, 4, 2), *rng.uniform(-4, 4, 2))]
            new = request(9, *rng.uniform(-4, 4, 2), *rng.uniform(-4, 4, 2))
            result = quote_insertion(base, new, oracle, Point(0, 0))
            assert result.added_km >= -1e-9
