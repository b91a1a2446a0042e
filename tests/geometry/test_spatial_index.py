"""Unit tests for the grid spatial index, including the degenerate cases
that previously caused unbounded ring expansion."""

import numpy as np
import pytest

from repro.geometry import EuclideanDistance, GridSpatialIndex, ManhattanDistance, Point


def brute_force_nearest(items, point, k, oracle):
    ranked = sorted(
        ((oracle.distance(point, p), repr(key), key) for key, p in items.items())
    )
    return [(key, d) for d, _, key in ranked[:k]]


class TestBasicOperations:
    def test_insert_and_len(self):
        index = GridSpatialIndex(cell_size=1.0)
        index.insert("a", Point(0, 0))
        index.insert("b", Point(5, 5))
        assert len(index) == 2
        assert "a" in index
        assert set(index) == {"a", "b"}

    def test_reinsert_moves(self):
        index = GridSpatialIndex(cell_size=1.0)
        index.insert("a", Point(0, 0))
        index.insert("a", Point(9, 9))
        assert len(index) == 1
        assert index.point_of("a") == Point(9, 9)

    def test_remove(self):
        index = GridSpatialIndex(cell_size=1.0)
        index.insert("a", Point(0, 0))
        index.remove("a")
        assert len(index) == 0
        with pytest.raises(KeyError):
            index.remove("a")

    def test_move_requires_existing(self):
        index = GridSpatialIndex(cell_size=1.0)
        with pytest.raises(KeyError):
            index.move("missing", Point(1, 1))

    def test_clear(self):
        index = GridSpatialIndex(cell_size=1.0)
        index.bulk_load([("a", Point(0, 0)), ("b", Point(1, 1))])
        index.clear()
        assert len(index) == 0

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            GridSpatialIndex(cell_size=0.0)


class TestNearest:
    def test_empty_index(self):
        assert GridSpatialIndex().nearest(Point(0, 0)) == []

    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            GridSpatialIndex().nearest(Point(0, 0), k=0)

    def test_single_item(self):
        index = GridSpatialIndex(cell_size=1.0)
        index.insert("only", Point(3, 4))
        assert index.nearest(Point(0, 0)) == [("only", pytest.approx(5.0))]

    def test_exactness_against_brute_force(self):
        rng = np.random.default_rng(42)
        oracle = EuclideanDistance()
        items = {i: Point(*rng.uniform(-10, 10, 2)) for i in range(60)}
        index = GridSpatialIndex(cell_size=1.7, oracle=oracle)
        index.bulk_load(items.items())
        for _ in range(50):
            query = Point(*rng.uniform(-15, 15, 2))
            k = int(rng.integers(1, 8))
            expected = brute_force_nearest(items, query, k, oracle)
            got = index.nearest(query, k=k)
            assert [key for key, _ in got] == [key for key, _ in expected]

    def test_far_away_query_terminates(self):
        # Regression: one item + tiny cells used to force millions of rings.
        index = GridSpatialIndex(cell_size=1e-6)
        index.insert("t", Point(0.0, 0.0))
        assert index.nearest(Point(1000.0, 1000.0), k=1)[0][0] == "t"

    def test_k_larger_than_population(self):
        index = GridSpatialIndex(cell_size=1.0)
        index.bulk_load([("a", Point(0, 0)), ("b", Point(1, 1))])
        assert len(index.nearest(Point(0, 0), k=10)) == 2

    def test_manhattan_oracle(self):
        oracle = ManhattanDistance()
        index = GridSpatialIndex(cell_size=1.0, oracle=oracle)
        index.bulk_load([("a", Point(2, 0)), ("b", Point(1.5, 1.4))])
        # Manhattan: a is 2.0 away, b is 2.9 away.
        assert index.nearest(Point(0, 0), k=1)[0][0] == "a"
