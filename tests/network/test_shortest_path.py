"""Unit tests for Dijkstra, A*, and the single-source cache."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.network import SingleSourceCache, dijkstra


def random_graph(seed, n=40, p=0.15):
    rng = np.random.default_rng(seed)
    adjacency = {u: [] for u in range(n)}
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                w = float(rng.uniform(0.1, 5.0))
                adjacency[u].append((v, w))
                graph.add_edge(u, v, weight=w)
    return adjacency, graph


class TestDijkstra:
    def test_matches_networkx(self):
        adjacency, graph = random_graph(0)
        mine = dijkstra(adjacency, 0)
        reference = nx.single_source_dijkstra_path_length(graph, 0)
        assert set(mine) == set(reference)
        for node, dist in reference.items():
            assert mine[node] == pytest.approx(dist)

    def test_unreachable_nodes_absent(self):
        adjacency = {0: [(1, 1.0)], 1: [], 2: []}
        dist = dijkstra(adjacency, 0)
        assert 2 not in dist
        assert dist[1] == 1.0

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            dijkstra({0: [(1, -1.0)], 1: []}, 0)

    def test_source_distance_zero(self):
        assert dijkstra({0: []}, 0) == {0: 0.0}


class TestSingleSourceCache:
    def test_hit_miss_accounting(self):
        adjacency, _ = random_graph(3)
        cache = SingleSourceCache(adjacency, max_sources=4)
        cache.distance(0, 5)
        cache.distance(0, 9)
        cache.distance(1, 5)
        assert cache.misses == 2
        assert cache.hits == 1

    def test_eviction(self):
        adjacency = {i: [((i + 1) % 4, 1.0)] for i in range(4)}
        cache = SingleSourceCache(adjacency, max_sources=2)
        cache.distances_from(0)
        cache.distances_from(1)
        cache.distances_from(2)  # evicts 0
        cache.distances_from(0)  # miss again
        assert cache.misses == 4

    def test_values_match_dijkstra(self):
        adjacency, _ = random_graph(4)
        cache = SingleSourceCache(adjacency)
        assert cache.distances_from(7) == dijkstra(adjacency, 7)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SingleSourceCache({}, max_sources=0)

    def test_clear(self):
        adjacency, _ = random_graph(5)
        cache = SingleSourceCache(adjacency)
        cache.distance(0, 1)
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0


class TestManyToMany:
    def test_matches_scalar_distance(self):
        adjacency, _ = random_graph(6)
        cache = SingleSourceCache(adjacency)
        sources, targets = [0, 3, 7], [1, 4, 9, 12]
        table = cache.many_to_many(sources, targets)
        assert table == [
            [cache.distance(s, t) for t in targets] for s in sources
        ]

    def test_one_dijkstra_per_distinct_source(self):
        adjacency, _ = random_graph(7)
        cache = SingleSourceCache(adjacency)
        cache.many_to_many([2, 5, 2, 5, 2], [0, 1])
        assert cache.misses == 2

    def test_unreachable_pairs_are_inf(self):
        adjacency = {0: [(1, 1.0)], 1: [], 2: []}
        cache = SingleSourceCache(adjacency)
        assert cache.many_to_many([0], [1, 2]) == [[1.0, math.inf]]

    def test_empty_inputs(self):
        cache = SingleSourceCache({0: []})
        assert cache.many_to_many([], [0]) == []
        assert cache.many_to_many([0], []) == [[]]
