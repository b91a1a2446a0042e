"""Unit tests for the per-frame distance memo.

The cache's contract has three legs: exactness (a hit is bit-identical
to the scalar oracle call it replaces), invalidation (taxi-dependent
matrices die at the frame boundary, the trace's trip table persists),
and transparency (installing the cache on a dispatcher changes nothing
but wall clock).  Each leg gets its own test class.
"""

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch.nonsharing import (
    GreedyNearestDispatcher,
    MinCostDispatcher,
    MinimaxDispatcher,
    NSTDDispatcher,
)
from repro.dispatch.sharing import STDDispatcher
from repro.geometry import EuclideanDistance, ManhattanDistance, Point
from repro.simulation import FrameDistanceCache
from tests.support import CountingOracle, oneway_ring

ORACLE = EuclideanDistance()


def small_frame(seed=3, n_taxis=6, n_requests=8, spread=3.0):
    rng = np.random.default_rng(seed)
    taxis = [Taxi(i, Point(*rng.normal(0, spread, 2))) for i in range(n_taxis)]
    requests = [
        PassengerRequest(j, Point(*rng.normal(0, spread, 2)), Point(*rng.normal(0, spread, 2)))
        for j in range(n_requests)
    ]
    return taxis, requests


class TestExactness:
    def test_pickup_matrix_matches_scalar_oracle(self):
        taxis, requests = small_frame()
        cache = FrameDistanceCache(ORACLE)
        matrix = cache.pickup_matrix(taxis, requests)
        for i, taxi in enumerate(taxis):
            for j, request in enumerate(requests):
                assert matrix[i, j] == ORACLE.distance(taxi.location, request.pickup)

    def test_trip_km_matches_scalar_oracle(self):
        # A standalone cache measures on demand; a cache built with the
        # trace (in another order) reads its run-start table.
        _, requests = small_frame()
        for cache in (FrameDistanceCache(ORACLE), FrameDistanceCache(ORACLE, requests[::-1])):
            trips = cache.trip_km(requests)
            for j, request in enumerate(requests):
                assert trips[j] == ORACLE.distance(request.pickup, request.dropoff)

    def test_exact_on_non_batch_oracle(self):
        # Manhattan has no exact batch kernel contract issue either, but
        # exercise a second metric to catch any kernel/metric mixup.
        taxis, requests = small_frame()
        oracle = ManhattanDistance()
        cache = FrameDistanceCache(oracle)
        matrix = cache.pickup_matrix(taxis, requests)
        assert matrix[2, 5] == oracle.distance(taxis[2].location, requests[5].pickup)


class TestInvalidationAndReuse:
    def test_pickup_matrix_reused_within_frame(self):
        taxis, requests = small_frame()
        cache = FrameDistanceCache(ORACLE)
        cache.begin_frame()
        first = cache.pickup_matrix(taxis, requests)
        second = cache.pickup_matrix(taxis, requests)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_pickup_matrix_dropped_at_frame_boundary(self):
        taxis, requests = small_frame()
        cache = FrameDistanceCache(ORACLE)
        cache.begin_frame()
        first = cache.pickup_matrix(taxis, requests)
        cache.begin_frame()
        second = cache.pickup_matrix(taxis, requests)
        assert first is not second
        assert cache.misses == 2
        assert cache.frames == 2

    def test_different_orders_get_distinct_correct_matrices(self):
        taxis, requests = small_frame()
        cache = FrameDistanceCache(ORACLE)
        forward = cache.pickup_matrix(taxis, requests)
        backward = cache.pickup_matrix(taxis[::-1], requests)
        assert np.array_equal(forward[::-1], backward)

    def test_request_keyed_values_survive_frames(self):
        _, requests = small_frame()
        cache = FrameDistanceCache(ORACLE, requests)
        cache.begin_frame()
        trips = cache.trip_km(requests)
        cache.begin_frame()
        assert np.array_equal(cache.trip_km(requests), trips)
        assert cache.hits == 2 and cache.misses == 0

    def test_trip_memo_computes_only_missing(self):
        _, requests = small_frame()
        oracle = CountingOracle(ORACLE)
        cache = FrameDistanceCache(oracle, requests[:4])
        assert oracle.paired_calls == 1
        # A read past the table is one batched miss that measures only
        # the four requests the table lacks.
        full = cache.trip_km(requests)
        assert cache.misses == 1 and cache.hits == 0
        assert oracle.paired_calls == 2 and len(oracle.events[-1]) == 4
        for j, request in enumerate(requests):
            assert full[j] == ORACLE.distance(request.pickup, request.dropoff)

    def test_matrices_are_read_only(self):
        taxis, requests = small_frame()
        cache = FrameDistanceCache(ORACLE)
        matrix = cache.pickup_matrix(taxis, requests)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


def ring_frame():
    """Taxi 1 is nearer the pickup against the one-way ring, taxi 2
    along it: ranking by D(pickup, taxi) instead of D(taxi, pickup)
    flips Greedy's pick."""
    taxis = [Taxi(1, Point(9.5, 0.25)), Taxi(2, Point(0.25, 9.6))]
    requests = [PassengerRequest(0, Point(0.2, 0.1), Point(10.0, 9.5))]
    return taxis, requests


def tie_frame():
    """Taxis 9 and 10 equidistant from the pickup (their reprs sort
    10 before 9, their ids 9 before 10)."""
    taxis = [Taxi(10, Point(1.0, 0.0)), Taxi(9, Point(-1.0, 0.0))]
    requests = [PassengerRequest(0, Point(0.0, 0.0), Point(0.0, 5.0))]
    return taxis, requests


class TestDispatcherTransparency:
    """A dispatcher outside an engine computes exactly what it does with
    the engine's cache installed: the cache never changes a schedule."""

    CONFIG = DispatchConfig(passenger_threshold_km=4.0, taxi_threshold_km=6.0)
    RING_CONFIG = DispatchConfig(passenger_threshold_km=40.0, taxi_threshold_km=40.0)

    FRAMES = {
        "random": (ORACLE, CONFIG, lambda: small_frame(seed=9, n_taxis=10, n_requests=14)),
        "oneway-ring": (oneway_ring(), RING_CONFIG, ring_frame),
        "tie": (ORACLE, CONFIG, tie_frame),
    }

    @staticmethod
    def dispatchers(oracle, config):
        yield GreedyNearestDispatcher(oracle, config)
        yield MinCostDispatcher(oracle, config)
        yield MinimaxDispatcher(oracle, config)
        yield NSTDDispatcher(oracle, config, optimize_for="passenger")
        yield NSTDDispatcher(oracle, config, optimize_for="taxi")
        yield NSTDDispatcher(oracle, config, optimize_for="median")
        yield STDDispatcher(oracle, config, optimize_for="passenger", pairing_radius_km=3.0)

    def test_schedules_identical_with_and_without_cache(self):
        for frame, (oracle, config, build) in self.FRAMES.items():
            taxis, requests = build()
            for dispatcher in self.dispatchers(oracle, config):
                label = (frame, dispatcher.name)
                dispatcher.frame_cache = None
                bare = dispatcher.dispatch(taxis, requests)
                cache = FrameDistanceCache(oracle)
                cache.begin_frame()
                dispatcher.frame_cache = cache
                cached = dispatcher.dispatch(taxis, requests)
                bare_pairs = sorted((a.taxi_id, a.request_ids) for a in bare.assignments)
                cached_pairs = sorted((a.taxi_id, a.request_ids) for a in cached.assignments)
                assert bare_pairs == cached_pairs, label
                if isinstance(dispatcher, STDDispatcher):
                    # STD measures its pickup gaps and sharing table on
                    # the oracle: it reads nothing from the frame cache.
                    assert cache.hits == cache.misses == 0, label
                else:
                    assert cache.misses > 0, label  # the cache was actually consulted
                assert bare_pairs, label  # every frame serves someone

