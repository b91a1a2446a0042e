"""Distance oracles.

All dispatch algorithms in the paper consume a single shortest-path
distance function ``D(a, b)`` (Section III-A).  We expose that as the
:class:`DistanceOracle` protocol so the same algorithm code runs against

* :class:`EuclideanDistance` — the paper's planar city surface (default),
* :class:`ManhattanDistance` — a grid-street approximation,
* :class:`HaversineDistance` — great-circle distance for raw lat/lon
  traces before projection, and
* :class:`repro.network.graph.RoadNetwork` — true shortest paths on a
  road graph (implemented in the network substrate).

Oracles must be symmetric in our usage only when the underlying metric
is; the algorithms never assume symmetry.

Next to the scalar protocol, every built-in oracle implements the batch
API of :mod:`repro.geometry.batch` (``pairwise`` / ``distances`` /
``paired``) with NumPy broadcasting.  The scalar protocol stays the
only *required* surface: consumers reach batch kernels through the
``oracle_*`` helpers, which fall back to a scalar loop for third-party
oracles.  Euclidean and Manhattan kernels honour the bit-exactness
contract (``batch_exact = True``); Haversine's NumPy trig differs from
CPython's libm by a few ulp, so it does not.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Protocol, runtime_checkable

import numpy as np

from repro.geometry.batch import Points, as_point_array, batch_kernels_exact, supports_batch
from repro.geometry.point import Point

__all__ = [
    "DistanceOracle",
    "EuclideanDistance",
    "ManhattanDistance",
    "HaversineDistance",
    "ScaledDistance",
    "EARTH_RADIUS_KM",
    "oracle_dominates_linf",
]

EARTH_RADIUS_KM = 6371.0088


@runtime_checkable
class DistanceOracle(Protocol):
    """Anything that measures the travel distance between two points, in km."""

    def distance(self, a: Point, b: Point) -> float:
        """Travel distance from ``a`` to ``b`` in kilometres."""
        ...


class _BroadcastKernelMixin:
    """Batch API via a broadcastable ``_kernel(ax, ay, bx, by)``.

    ``sources`` are the matrix rows — the first argument of the scalar
    ``D(source, target)`` reference (see the source-row convention in
    :mod:`repro.geometry.batch`).
    """

    _kernel: Callable[..., np.ndarray]

    def pairwise(self, sources: Points, targets: Points) -> np.ndarray:
        a = as_point_array(sources)
        b = as_point_array(targets)
        return self._kernel(a[:, 0:1], a[:, 1:2], b[None, :, 0], b[None, :, 1])

    def paired(self, sources: Points, targets: Points) -> np.ndarray:
        a = as_point_array(sources)
        b = as_point_array(targets)
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"paired inputs differ in length: {a.shape[0]} vs {b.shape[0]}")
        return self._kernel(a[:, 0], a[:, 1], b[:, 0], b[:, 1])


class EuclideanDistance(_BroadcastKernelMixin):
    """Straight-line distance on the planar city surface.

    The scalar path computes ``sqrt(dx·dx + dy·dy)`` (not ``hypot``,
    whose CPython implementation is a correctly-rounded multi-step
    algorithm NumPy does not reproduce) so the vectorized kernel is
    bit-identical to it: IEEE 754 requires exact rounding for ``*``,
    ``+`` and ``sqrt``, making the two evaluation orders agree exactly.
    """

    batch_exact = True

    def distance(self, a: Point, b: Point) -> float:
        dx = a.x - b.x
        dy = a.y - b.y
        return math.sqrt(dx * dx + dy * dy)

    @staticmethod
    def _kernel(
        ax: np.ndarray | np.float64,
        ay: np.ndarray | np.float64,
        bx: np.ndarray | np.float64,
        by: np.ndarray | np.float64,
    ) -> np.ndarray:
        # In-place updates recycle the two difference buffers — the same
        # *, +, sqrt operations (so still bit-identical to the scalar
        # path), minus three full-size temporaries on the frame hot path.
        dx = ax - bx
        dy = ay - by
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EuclideanDistance()"


class ManhattanDistance(_BroadcastKernelMixin):
    """L1 distance; a cheap stand-in for grid street networks."""

    batch_exact = True

    def distance(self, a: Point, b: Point) -> float:
        return abs(a.x - b.x) + abs(a.y - b.y)

    @staticmethod
    def _kernel(
        ax: np.ndarray | np.float64,
        ay: np.ndarray | np.float64,
        bx: np.ndarray | np.float64,
        by: np.ndarray | np.float64,
    ) -> np.ndarray:
        dx = ax - bx
        dy = ay - by
        np.abs(dx, out=dx)
        np.abs(dy, out=dy)
        dx += dy
        return dx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ManhattanDistance()"


class HaversineDistance(_BroadcastKernelMixin):
    """Great-circle distance, interpreting points as (lon, lat) degrees."""

    # NumPy's vectorized sin/cos/arcsin differ from libm by ~1 ulp, so the
    # kernel is numerically equivalent but not bit-identical to ``distance``.
    batch_exact = False

    def distance(self, a: Point, b: Point) -> float:
        lon1, lat1 = math.radians(a.x), math.radians(a.y)
        lon2, lat2 = math.radians(b.x), math.radians(b.y)
        dlat = lat2 - lat1
        dlon = lon2 - lon1
        h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
        return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))

    @staticmethod
    def _kernel(
        ax: np.ndarray | np.float64,
        ay: np.ndarray | np.float64,
        bx: np.ndarray | np.float64,
        by: np.ndarray | np.float64,
    ) -> np.ndarray:
        lon1, lat1 = np.radians(ax), np.radians(ay)
        lon2, lat2 = np.radians(bx), np.radians(by)
        dlat = lat2 - lat1
        dlon = lon2 - lon1
        h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HaversineDistance()"


class ScaledDistance:
    """Wraps another oracle and multiplies its output by a detour factor.

    Real road distances exceed straight-line distances by a roughly
    constant circuity factor (~1.3 for US cities); this wrapper lets
    experiments model that without a full road network.  Batch queries
    delegate to the base oracle's kernels (or its scalar loop) and scale
    the result, so the wrapper is exactly as batch-exact as its base.
    """

    def __init__(self, base: DistanceOracle, factor: float):
        if factor <= 0.0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        self._base = base
        self._factor = float(factor)

    @property
    def factor(self) -> float:
        return self._factor

    @property
    def batch_exact(self) -> bool:
        if supports_batch(self._base):
            return batch_kernels_exact(self._base)
        return True  # the scalar-loop fallback is scalar ``distance`` itself

    def distance(self, a: Point, b: Point) -> float:
        return self._factor * self._base.distance(a, b)

    def pairwise(self, sources: Points, targets: Points) -> np.ndarray:
        from repro.geometry.batch import oracle_pairwise

        return self._factor * oracle_pairwise(self._base, sources=sources, targets=targets)

    def paired(self, sources: Points, targets: Points) -> np.ndarray:
        from repro.geometry.batch import oracle_paired

        return self._factor * oracle_paired(self._base, sources=sources, targets=targets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScaledDistance({self._base!r}, factor={self._factor})"


def oracle_dominates_linf(oracle: DistanceOracle) -> bool:
    """Whether ``oracle`` is bounded below by L∞ on the stored planar
    coordinates.

    This is the soundness condition for every grid-geometry shortcut in
    the package: preference-builder pruning and the sharding layer's
    θ-ball component decomposition both reason "far apart in cell space
    ⇒ far apart under the oracle", which holds exactly when the metric
    dominates L∞.  Euclidean and Manhattan distance both do, as does any
    ``ScaledDistance`` *expansion* (factor ≥ 1) of a dominating metric;
    a contraction or an unknown third-party oracle does not, and callers
    must fall back to geometry-free behaviour.
    """
    base: DistanceOracle = oracle
    while isinstance(base, ScaledDistance):
        if base.factor < 1.0:
            return False
        base = base._base  # noqa: SLF001 - same-package structural check
    return isinstance(base, (EuclideanDistance, ManhattanDistance))
