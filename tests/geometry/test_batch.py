"""Unit tests for the batched distance-kernel layer (`repro.geometry.batch`).

Covers the four built-in oracles plus the road network: exact agreement
with scalar ``distance`` for kernels flagged ``batch_exact``, tolerance
agreement for Haversine (NumPy trig is a few ulp off libm), empty-input
shapes, the non-finite-coordinate guard, asymmetric network distances,
and the scalar-fallback contract for third-party oracles.
"""

import math

import numpy as np
import pytest

from repro.geometry import (
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
    Point,
    ScaledDistance,
    as_point_array,
    batch_kernels_exact,
    oracle_paired,
    oracle_pairwise,
    supports_batch,
)
from repro.network import RoadNetwork

EXACT_ORACLES = [
    EuclideanDistance(),
    ManhattanDistance(),
    ScaledDistance(EuclideanDistance(), 1.6),
    ScaledDistance(ManhattanDistance(), 0.5),
]

A = [Point(0.0, 0.0), Point(1.25, -2.0), Point(3.0, 4.0), Point(-0.5, 0.5)]
B = [Point(2.0, 2.0), Point(-1.0, 0.75), Point(0.0, -3.5)]


class ScalarOnlyOracle:
    """A third-party oracle implementing only the scalar protocol."""

    def distance(self, a: Point, b: Point) -> float:
        return abs(a.x - b.x) + 2.0 * abs(a.y - b.y)


def scalar_matrix(oracle, points_a, points_b):
    return np.array([[oracle.distance(a, b) for b in points_b] for a in points_a])


class TestPairwise:
    @pytest.mark.parametrize("oracle", EXACT_ORACLES, ids=lambda o: repr(o))
    def test_exact_kernels_match_scalar_bitwise(self, oracle):
        expected = scalar_matrix(oracle, A, B)
        result = oracle.pairwise(A, B)
        assert result.shape == (len(A), len(B))
        assert np.array_equal(expected, result)

    def test_haversine_matches_scalar_to_tolerance(self):
        oracle = HaversineDistance()
        lonlat_a = [Point(-73.98, 40.75), Point(-73.95, 40.78), Point(0.0, 0.0)]
        lonlat_b = [Point(-71.06, 42.36), Point(-73.98, 40.75)]
        expected = scalar_matrix(oracle, lonlat_a, lonlat_b)
        result = oracle.pairwise(lonlat_a, lonlat_b)
        np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_empty_inputs(self):
        oracle = EuclideanDistance()
        assert oracle.pairwise([], B).shape == (0, len(B))
        assert oracle.pairwise(A, []).shape == (len(A), 0)
        assert oracle.pairwise([], []).shape == (0, 0)

    def test_non_finite_coordinate_rejected(self):
        oracle = EuclideanDistance()
        with pytest.raises(ValueError, match="non-finite"):
            oracle.pairwise([Point(math.nan, 0.0)], B)
        with pytest.raises(ValueError, match="non-finite"):
            oracle.pairwise(A, [Point(0.0, math.inf)])


class TestDistancesAndPaired:
    @pytest.mark.parametrize("oracle", EXACT_ORACLES, ids=lambda o: repr(o))
    def test_distances_is_pairwise_row(self, oracle):
        # One-to-many distances are a one-row pairwise call.
        origin = Point(0.75, -1.5)
        row = oracle_pairwise(oracle, sources=[origin], targets=B, exact=True)[0]
        assert row.shape == (len(B),)
        assert row.tolist() == [oracle.distance(origin, b) for b in B]

    @pytest.mark.parametrize("oracle", EXACT_ORACLES, ids=lambda o: repr(o))
    def test_paired_is_elementwise(self, oracle):
        pairs_b = B + [Point(9.0, 9.0)]
        result = oracle.paired(A, pairs_b)
        assert result.tolist() == [oracle.distance(a, b) for a, b in zip(A, pairs_b)]

    def test_paired_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            EuclideanDistance().paired(A, B)
        with pytest.raises(ValueError, match="length"):
            oracle_paired(ScalarOnlyOracle(), sources=A, targets=B)


class TestRoadNetworkBatch:
    @pytest.fixture()
    def network(self):
        # A one-way pair: 0 -> 1 is 1 km, 1 -> 0 must detour via 2 (4 km).
        network = RoadNetwork()
        network.add_node(0, Point(0.0, 0.0))
        network.add_node(1, Point(1.0, 0.0))
        network.add_node(2, Point(0.5, 1.0))
        network.add_edge(0, 1, 1.0, oneway=True)
        network.add_edge(1, 2, 2.0)
        network.add_edge(2, 0, 2.0)
        return network

    def test_flagged_exact(self, network):
        assert batch_kernels_exact(network)

    def test_pairwise_matches_scalar_and_is_asymmetric(self, network):
        points = [Point(0.0, 0.1), Point(1.0, -0.1), Point(0.4, 0.9)]
        matrix = network.pairwise(points, points)
        expected = scalar_matrix(network, points, points)
        assert np.array_equal(matrix, expected)
        # One-way edge: node-0 -> node-1 is shorter than node-1 -> node-0.
        assert matrix[0, 1] < matrix[1, 0]

    def test_distances_and_paired_match_scalar(self, network):
        points = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1.0)]
        origin = Point(0.2, 0.0)
        assert network.pairwise([origin], points)[0].tolist() == [
            network.distance(origin, p) for p in points
        ]
        assert network.paired(points, list(reversed(points))).tolist() == [
            network.distance(a, b) for a, b in zip(points, reversed(points))
        ]

    def test_same_node_pairs_use_planar_distance(self, network):
        # Both points snap to node 0; scalar path returns their direct
        # planar separation, and the batch path must agree exactly.
        a, b = Point(0.05, 0.0), Point(0.0, 0.05)
        assert network.pairwise([a], [b])[0, 0] == network.distance(a, b)

    def test_disconnected_pair_is_inf(self):
        network = RoadNetwork()
        network.add_node(0, Point(0.0, 0.0))
        network.add_node(1, Point(10.0, 0.0))
        assert network.pairwise([Point(0, 0)], [Point(10, 0)])[0, 0] == math.inf


class TestFallbackContract:
    def test_scalar_only_oracle_supported_everywhere(self):
        oracle = ScalarOnlyOracle()
        assert not supports_batch(oracle)
        assert not batch_kernels_exact(oracle)
        assert np.array_equal(
            oracle_pairwise(oracle, sources=A, targets=B, exact=True), scalar_matrix(oracle, A, B)
        )
        assert oracle_paired(oracle, sources=A, targets=A).tolist() == [0.0] * len(A)

    def test_exact_flag_gates_inexact_kernels(self):
        # Haversine has kernels but no exactness contract: exact=True must
        # route through scalar distance calls instead.
        oracle = HaversineDistance()
        assert supports_batch(oracle) and not batch_kernels_exact(oracle)
        points_a = [Point(-73.98, 40.75), Point(-73.95, 40.78)]
        points_b = [Point(-71.06, 42.36)]
        exact = oracle_pairwise(oracle, sources=points_a, targets=points_b, exact=True)
        assert exact.tolist() == scalar_matrix(oracle, points_a, points_b).tolist()
        fast = oracle_pairwise(oracle, sources=points_a, targets=points_b)
        np.testing.assert_allclose(fast, exact, rtol=1e-12)

    def test_scaled_exactness_follows_base(self):
        assert batch_kernels_exact(ScaledDistance(EuclideanDistance(), 1.3))
        assert not batch_kernels_exact(ScaledDistance(HaversineDistance(), 1.3))
        assert batch_kernels_exact(ScaledDistance(ScaledDistance(ManhattanDistance(), 2.0), 0.5))


class TestAsPointArray:
    def test_packs_points(self):
        array = as_point_array(A)
        assert array.shape == (len(A), 2)
        assert array[2].tolist() == [3.0, 4.0]

    def test_empty_is_0x2(self):
        assert as_point_array([]).shape == (0, 2)

    def test_passes_through_packed_arrays(self):
        packed = as_point_array(A)
        assert as_point_array(packed) is not None
        assert np.array_equal(as_point_array(packed), packed)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            as_point_array(np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_point_array([Point(0.0, math.nan)])
