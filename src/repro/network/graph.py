"""A road network that doubles as a :class:`DistanceOracle`.

Nodes are intersections at planar coordinates; edges are road segments
weighted by length.  Arbitrary query points (taxi positions, pickups)
are snapped to their nearest node through a grid spatial index, and the
oracle distance is::

    D(a, b) = |a - snap(a)| + shortest_path(snap(a), snap(b)) + |snap(b) - b|

which keeps the oracle a metric-like function usable as a drop-in
replacement for :class:`repro.geometry.EuclideanDistance`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.batch import as_point_array
from repro.geometry.point import Point
from repro.geometry.spatial_index import GridSpatialIndex
from repro.network.shortest_path import SingleSourceCache

__all__ = ["RoadNetwork"]


class RoadNetwork:
    """A weighted road graph with point snapping and cached shortest paths.

    Implements both the scalar :class:`repro.geometry.DistanceOracle`
    protocol and the batch API (``pairwise`` / ``distances`` /
    ``paired``).  Batch queries snap every distinct point once, then run
    one Dijkstra per distinct snapped source through the shared LRU
    cache, so a frame-sized ``pairwise`` costs |unique sources| Dijkstra
    runs instead of |A|·|B| scalar queries.  The batch results reuse the
    exact scalar snap and cached distance maps, so they are bit-identical
    to ``distance`` (``batch_exact``).
    """

    batch_exact = True

    def __init__(self, cache_sources: int = 2048):
        self._coords: dict[int, Point] = {}
        self._adjacency: dict[int, list[tuple[int, float]]] = {}
        self._index: GridSpatialIndex | None = None
        self._cache: SingleSourceCache | None = None
        self._cache_sources = cache_sources

    # -- construction --------------------------------------------------

    def add_node(self, node_id: int, point: Point) -> None:
        """Add an intersection; re-adding an id raises ``ValueError``."""
        if node_id in self._coords:
            raise ValueError(f"node {node_id} already exists")
        self._coords[node_id] = point
        self._adjacency[node_id] = []
        self._invalidate()

    def add_edge(self, u: int, v: int, length_km: float | None = None, *, oneway: bool = False) -> None:
        """Add a road segment; length defaults to the Euclidean gap."""
        if u not in self._coords or v not in self._coords:
            raise KeyError(f"both endpoints must exist before adding edge ({u}, {v})")
        if length_km is None:
            length_km = self._coords[u].distance_to(self._coords[v])
        if length_km < 0.0:
            raise ValueError(f"edge length must be non-negative, got {length_km}")
        self._adjacency[u].append((v, length_km))
        if not oneway:
            self._adjacency[v].append((u, length_km))
        self._invalidate()

    def _invalidate(self) -> None:
        self._index = None
        self._cache = None

    # -- inspection ----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._coords)

    @property
    def edge_count(self) -> int:
        """Number of directed adjacency entries (undirected edges count twice)."""
        return sum(len(neighbors) for neighbors in self._adjacency.values())

    def node_point(self, node_id: int) -> Point:
        return self._coords[node_id]

    def nodes(self) -> Iterable[int]:
        return self._coords.keys()

    def neighbors(self, node_id: int) -> list[tuple[int, float]]:
        return list(self._adjacency[node_id])

    # -- queries ---------------------------------------------------------

    def _ensure_ready(self) -> None:
        if self._index is None:
            if not self._coords:
                raise ValueError("road network has no nodes")
            span = self._typical_spacing()
            self._index = GridSpatialIndex(cell_size=span)
            self._index.bulk_load(self._coords.items())
        if self._cache is None:
            self._cache = SingleSourceCache(self._adjacency, max_sources=self._cache_sources)

    def _typical_spacing(self) -> float:
        xs = [p.x for p in self._coords.values()]
        ys = [p.y for p in self._coords.values()]
        area = max(max(xs) - min(xs), 1e-9) * max(max(ys) - min(ys), 1e-9)
        return max(math.sqrt(area / max(len(self._coords), 1)), 1e-6)

    def snap(self, point: Point) -> tuple[int, float]:
        """The nearest node id and its straight-line offset from ``point``."""
        self._ensure_ready()
        assert self._index is not None
        results = self._index.nearest(point, k=1)
        if not results:
            raise ValueError("road network has no nodes")
        node_id, offset = results[0]
        return int(node_id), offset

    def node_distance(self, u: int, v: int) -> float:
        """Shortest-path distance between two nodes; ``inf`` if disconnected."""
        self._ensure_ready()
        assert self._cache is not None
        return self._cache.distance(u, v)

    def distance(self, a: Point, b: Point) -> float:
        """DistanceOracle interface: snapped shortest-path distance in km."""
        u, offset_a = self.snap(a)
        v, offset_b = self.snap(b)
        if u == v:
            return a.distance_to(b)
        return offset_a + self.node_distance(u, v) + offset_b

    # -- batch queries ---------------------------------------------------

    def _snap_points(self, points: Sequence[Point] | np.ndarray) -> tuple[list[Point], list[tuple[int, float]]]:
        """Validate, materialize, and snap a batch of points.

        Snapping memoizes by coordinate so repeated points (a taxi queried
        against many pickups, duplicated trace endpoints) snap once.
        """
        array = as_point_array(points)
        pts = [Point(float(x), float(y)) for x, y in array]
        memo: dict[tuple[float, float], tuple[int, float]] = {}
        snaps: list[tuple[int, float]] = []
        for p in pts:
            key = (p.x, p.y)
            snap = memo.get(key)
            if snap is None:
                snap = self.snap(p)
                memo[key] = snap
            snaps.append(snap)
        return pts, snaps

    def pairwise(self, sources: Sequence[Point], targets: Sequence[Point]) -> np.ndarray:
        """The ``(len(sources), len(targets))`` matrix of snapped
        shortest-path km, rows following the source-row convention."""
        pts_a, snaps_a = self._snap_points(sources)
        pts_b, snaps_b = self._snap_points(targets)
        if not pts_a or not pts_b:
            return np.empty((len(pts_a), len(pts_b)), dtype=np.float64)
        self._ensure_ready()
        assert self._cache is not None
        source_nodes = [u for u, _ in snaps_a]
        target_nodes = [v for v, _ in snaps_b]
        node_km = np.asarray(
            self._cache.many_to_many(source_nodes, target_nodes), dtype=np.float64
        )
        offsets_a = np.array([off for _, off in snaps_a], dtype=np.float64)
        offsets_b = np.array([off for _, off in snaps_b], dtype=np.float64)
        # Same association order as the scalar path:
        # (offset_a + node_distance) + offset_b.
        out = (offsets_a[:, None] + node_km) + offsets_b[None, :]
        same_node = np.asarray(source_nodes)[:, None] == np.asarray(target_nodes)[None, :]
        if same_node.any():
            for i, j in zip(*np.nonzero(same_node)):
                out[i, j] = pts_a[i].distance_to(pts_b[j])
        return out

    def paired(self, sources: Sequence[Point], targets: Sequence[Point]) -> np.ndarray:
        """Elementwise snapped shortest-path distances in km."""
        pts_a, snaps_a = self._snap_points(sources)
        pts_b, snaps_b = self._snap_points(targets)
        if len(pts_a) != len(pts_b):
            raise ValueError(f"paired inputs differ in length: {len(pts_a)} vs {len(pts_b)}")
        out = np.empty(len(pts_a), dtype=np.float64)
        for i, ((u, off_a), (v, off_b)) in enumerate(zip(snaps_a, snaps_b)):
            if u == v:
                out[i] = pts_a[i].distance_to(pts_b[i])
            else:
                out[i] = off_a + self.node_distance(u, v) + off_b
        return out

    @property
    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of the single-source cache since construction."""
        if self._cache is None:
            return (0, 0)
        return (self._cache.hits, self._cache.misses)
