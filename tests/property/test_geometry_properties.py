"""Property-based tests of the geometry substrate."""

from hypothesis import given, settings, strategies as st

from repro.geometry import (
    EuclideanDistance,
    GridSpatialIndex,
    ManhattanDistance,
    Point,
)

coordinate = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coordinate, coordinate)


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_euclidean_triangle_inequality(a, b, c):
    oracle = EuclideanDistance()
    assert oracle.distance(a, c) <= oracle.distance(a, b) + oracle.distance(b, c) + 1e-9


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_manhattan_triangle_inequality(a, b, c):
    oracle = ManhattanDistance()
    assert oracle.distance(a, c) <= oracle.distance(a, b) + oracle.distance(b, c) + 1e-9


@settings(max_examples=200, deadline=None)
@given(points, points)
def test_metrics_symmetric_and_nonnegative(a, b):
    for oracle in (EuclideanDistance(), ManhattanDistance()):
        assert oracle.distance(a, b) >= 0.0
        assert oracle.distance(a, b) == oracle.distance(b, a)
        assert oracle.distance(a, a) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(points, min_size=1, max_size=30),
    points,
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.05, max_value=8.0),
)
def test_spatial_index_nearest_matches_brute_force(items, query, k, cell_size):
    index = GridSpatialIndex(cell_size=cell_size)
    oracle = EuclideanDistance()
    keyed = {i: p for i, p in enumerate(items)}
    index.bulk_load(keyed.items())
    got = index.nearest(query, k=k)
    expected = sorted(
        ((oracle.distance(query, p), repr(i), i) for i, p in keyed.items())
    )[:k]
    assert [key for key, _ in got] == [i for _, _, i in expected]
