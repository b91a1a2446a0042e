"""A uniform-grid spatial index.

RAII retrieves candidate taxis near a pickup through a spatial index
[7], and the road network snaps query points to their nearest node
through one.  A uniform
grid with ring-expansion queries is simple, has O(1) expected insert and
remove, and is fast at city scale, which is exactly what a per-frame
dispatcher needs (the index is rebuilt or mutated every frame).

Items are stored by an opaque hashable key with an associated point, so
the index can hold taxi ids, request ids, or anything else.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Hashable, Iterable, Iterator

import numpy as np

from repro.geometry.distance import DistanceOracle, EuclideanDistance
from repro.geometry.point import Point

__all__ = [
    "GridSpatialIndex",
    "grid_cells",
    "pack_cell_keys",
    "cell_reach",
]

#: Packed cell coordinates live in a signed 32-bit lane of the 64-bit
#: key; anything outside is a degenerate geometry (coordinates billions
#: of kilometres from the origin) the packers refuse rather than wrap.
_CELL_LIMIT = np.int64(1) << 31


def grid_cells(xy: np.ndarray, cell_km: float) -> np.ndarray:
    """Vectorized grid-cell coordinates of ``(n, 2)`` planar points.

    The same floor-division convention as
    :meth:`GridSpatialIndex._cell_of` — ``floor(coordinate / cell_km)``
    per axis — so reach bounds derived for the object index
    (:func:`cell_reach`) transfer verbatim to these arrays.

    Raises ``ValueError`` on non-finite coordinates or cells outside the
    packable 32-bit range; callers treating the grid as an optimization
    (the sharding layer) catch this and fall back to one global bucket.
    """
    if cell_km <= 0.0 or not math.isfinite(cell_km):
        raise ValueError(f"cell_km must be positive and finite, got {cell_km}")
    pts = np.asarray(xy, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) coordinate array, got shape {pts.shape}")
    cells = np.floor_divide(pts, cell_km)
    if not bool(np.all(np.isfinite(cells))):
        raise ValueError("non-finite coordinates cannot be bucketed")
    out = cells.astype(np.int64)
    if bool(np.any(np.abs(out) >= _CELL_LIMIT)):
        raise ValueError("cell coordinates overflow the packable 32-bit range")
    return out


def pack_cell_keys(cells: np.ndarray) -> np.ndarray:
    """Pack ``(n, 2)`` int64 cell coordinates into one uint64 key each.

    The key is ``(cx + 2^31) << 32 | (cy + 2^31)``: a bijection on the
    range :func:`grid_cells` guarantees, monotone in ``(cx, cy)``
    lexicographic order, so sorted keys admit ``searchsorted`` joins.
    """
    cell_arr = np.asarray(cells, dtype=np.int64)
    shifted = (cell_arr + _CELL_LIMIT).astype(np.uint64)
    return (shifted[:, 0] << np.uint64(32)) | shifted[:, 1]


def cell_reach(radius_km: np.ndarray, cell_km: float) -> np.ndarray:
    """Per-radius Chebyshev cell reach, as :meth:`GridSpatialIndex.within`
    computes it: ``floor(radius / cell) + 2``.

    Any point within ``radius_km`` (under a metric dominating L∞) of a
    query point lies in a cell at Chebyshev cell-distance at most
    ``floor(radius/cell) + 1``; the extra ring absorbs floating-point
    division slop, exactly as the object index's queries do.
    """
    radii = np.asarray(radius_km, dtype=np.float64)
    return np.floor_divide(radii, cell_km).astype(np.int64) + 2


class GridSpatialIndex:
    """Uniform-grid index over planar points.

    Parameters
    ----------
    cell_size:
        Edge length of a grid cell in kilometres.  Query cost degrades
        gracefully for any positive value; pick roughly the median
        nearest-neighbour distance of the indexed population.
    oracle:
        Distance oracle used to rank candidates.  Ring expansion uses the
        grid (L-infinity) geometry for candidate generation, which is a
        superset of the Euclidean ball, so results are exact for any
        metric bounded below by a constant times L-infinity distance
        (Euclidean and Manhattan both qualify).
    """

    def __init__(self, cell_size: float = 1.0, oracle: DistanceOracle | None = None):
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = float(cell_size)
        self._oracle = oracle if oracle is not None else EuclideanDistance()
        self._cells: dict[tuple[int, int], set[Hashable]] = defaultdict(set)
        self._points: dict[Hashable, Point] = {}

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._points

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._points)

    @property
    def cell_size(self) -> float:
        return self._cell_size

    def _cell_of(self, point: Point) -> tuple[int, int]:
        return (math.floor(point.x / self._cell_size), math.floor(point.y / self._cell_size))

    def insert(self, key: Hashable, point: Point) -> None:
        """Insert ``key`` at ``point``; re-inserting an existing key moves it."""
        if key in self._points:
            self.remove(key)
        self._points[key] = point
        self._cells[self._cell_of(point)].add(key)

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; raises ``KeyError`` if absent."""
        point = self._points.pop(key)
        cell = self._cell_of(point)
        bucket = self._cells[cell]
        bucket.discard(key)
        if not bucket:
            del self._cells[cell]

    def move(self, key: Hashable, point: Point) -> None:
        """Update ``key``'s location; raises ``KeyError`` if absent."""
        if key not in self._points:
            raise KeyError(key)
        self.insert(key, point)

    def point_of(self, key: Hashable) -> Point:
        """The stored location of ``key``."""
        return self._points[key]

    def bulk_load(self, items: Iterable[tuple[Hashable, Point]]) -> None:
        """Insert many ``(key, point)`` pairs."""
        for key, point in items:
            self.insert(key, point)

    def clear(self) -> None:
        self._cells.clear()
        self._points.clear()

    def _occupied_by_distance(self, center: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
        """Occupied cells sorted by Chebyshev cell-distance from ``center``.

        Every point in a cell at Chebyshev cell-distance ``c ≥ 1`` is at
        least ``(c − 1)·cell_size`` away in L∞ (hence in any metric that
        dominates L∞, such as Euclidean or Manhattan), which gives the
        exact early-exit bound used by :meth:`nearest` and
        :meth:`within`.  Scanning occupied cells directly — instead of
        expanding empty rings — keeps queries O(cells·log cells) even
        when the query point is arbitrarily far from all items.
        """
        cx, cy = center
        return sorted(
            (max(abs(x - cx), abs(y - cy)), (x, y)) for (x, y) in self._cells
        )

    def _lower_bound_km(self, cheb: int) -> float:
        return max(0, cheb - 1) * self._cell_size

    def nearest(self, point: Point, k: int = 1) -> list[tuple[Hashable, float]]:
        """The ``k`` nearest items to ``point`` as ``(key, distance)`` pairs.

        Results are sorted by distance (ties broken by key repr for
        determinism).  Returns fewer than ``k`` pairs when the index holds
        fewer items.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not self._points:
            return []
        center = self._cell_of(point)
        found: list[tuple[float, str, Hashable]] = []
        kth = math.inf
        for cheb, cell in self._occupied_by_distance(center):
            if len(found) >= k and self._lower_bound_km(cheb) > kth:
                break
            for key in self._cells[cell]:
                dist = self._oracle.distance(point, self._points[key])
                found.append((dist, repr(key), key))
            if len(found) >= k:
                found.sort()
                kth = found[k - 1][0]
        found.sort()
        return [(key, dist) for dist, _, key in found[:k]]
