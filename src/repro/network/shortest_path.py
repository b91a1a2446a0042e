"""Shortest-path algorithms over adjacency-list graphs.

The road network stores adjacency as ``dict[node, list[(neighbor, w)]]``.
We implement single-source Dijkstra plus a small LRU-style cache of
single-source runs, because a dispatch frame asks for distances from
one taxi to many pickups (and one pickup to many taxis), which a cached
single-source run answers in O(1) each after the first query.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from collections.abc import Hashable, Mapping

__all__ = ["dijkstra", "SingleSourceCache"]

Adjacency = Mapping[Hashable, list[tuple[Hashable, float]]]


def dijkstra(adjacency: Adjacency, source: Hashable) -> dict[Hashable, float]:
    """Distances from ``source`` to every reachable node.

    Edge weights must be non-negative; a negative weight raises
    ``ValueError`` when relaxed.
    """
    dist: dict[Hashable, float] = {source: 0.0}
    heap: list[tuple[float, int, Hashable]] = [(0.0, 0, source)]
    counter = 1
    settled: set[Hashable] = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbor, weight in adjacency.get(node, ()):
            if weight < 0.0:
                raise ValueError(f"negative edge weight {weight} on {node!r}->{neighbor!r}")
            nd = d + weight
            if nd < dist.get(neighbor, math.inf):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, counter, neighbor))
                counter += 1
    return dist


class SingleSourceCache:
    """An LRU cache of single-source Dijkstra results.

    One dispatch frame issues many ``distance(taxi, pickup)`` queries with
    a small set of distinct sources; caching whole single-source maps
    turns the per-frame cost into one Dijkstra per distinct endpoint.
    """

    def __init__(self, adjacency: Adjacency, max_sources: int = 256):
        if max_sources < 1:
            raise ValueError(f"max_sources must be positive, got {max_sources}")
        self._adjacency = adjacency
        self._max_sources = max_sources
        self._cache: OrderedDict[Hashable, dict[Hashable, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def distances_from(self, source: Hashable) -> dict[Hashable, float]:
        if source in self._cache:
            self._cache.move_to_end(source)
            self.hits += 1
            return self._cache[source]
        self.misses += 1
        result = dijkstra(self._adjacency, source)
        self._cache[source] = result
        if len(self._cache) > self._max_sources:
            self._cache.popitem(last=False)
        return result

    def distance(self, source: Hashable, target: Hashable) -> float:
        return self.distances_from(source).get(target, math.inf)

    def many_to_many(
        self, sources: list[Hashable], targets: list[Hashable]
    ) -> list[list[float]]:
        """Batched node-pair distances as a ``len(sources) × len(targets)``
        row-major table (``inf`` marks unreachable pairs).

        One Dijkstra per *distinct* source, through the same LRU cache as
        the scalar path, so a frame's one-to-many and many-to-many
        queries share work both within and across frames.
        """
        rows_by_source: dict[Hashable, list[float]] = {}
        out: list[list[float]] = []
        for source in sources:
            row = rows_by_source.get(source)
            if row is None:
                dist_map = self.distances_from(source)
                row = [dist_map.get(t, math.inf) for t in targets]
                rows_by_source[source] = row
            out.append(row)
        return out

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0
