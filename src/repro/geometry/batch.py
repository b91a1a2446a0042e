"""Batched distance kernels and the scalar-fallback contract.

A dispatch frame scores every (taxi, request) pair, so the frame hot
path is dominated by pairwise distance evaluation.  This module defines
the *batch* side of the oracle API:

* :class:`BatchDistanceOracle` — the optional protocol an oracle may
  implement next to ``distance(a, b)``: ``pairwise(sources, targets)``
  (full cross product; one source row gives one-to-many distances) and
  ``paired(sources, targets)`` (elementwise, equal lengths), both
  returning float64 arrays of kilometres;
* generic helpers (:func:`oracle_pairwise`, :func:`oracle_paired`) that
  use the batch API when present and fall back to a scalar
  ``distance`` loop otherwise, so third-party oracles that only
  implement the scalar protocol keep working everywhere.

**Source-row convention.**  Batch operands are named, not positional:
``sources`` are the rows / first argument of the scalar reference
``D(source, target)`` and ``targets`` the columns.  In dispatch code
the sources are the *taxis* of ``D(taxi, pickup)``.  On an asymmetric
oracle (one-way road edges) swapping the two silently produces wrong
scores — the exact bug PR 1's review fixed — so the helpers take both
as keyword-only arguments and lint rule REP005 requires the keywords
at every ``pairwise``/``paired`` call site.

**Exactness contract.**  A batch kernel may be declared *exact* by
setting ``batch_exact = True`` on the oracle: every entry of a batch
result is then guaranteed bit-identical to the corresponding scalar
``distance`` call, and its batch methods accept float64 ``(n, 2)``
coordinate arrays wherever they accept :class:`Point` sequences
(validating them, NaN/inf included, as :func:`as_point_array` does).
The built-in Euclidean/Manhattan kernels (and the road network, which
reuses the scalar snap + cached Dijkstra maps) are exact; the Haversine
kernel agrees only to a few ulp (NumPy's SIMD trig is not CPython's
libm) and is therefore *not* flagged exact.  Consumers that must
produce bit-identical results to their scalar reference (the
preference-table builder) only trust kernels flagged exact; everything
else still benefits from the vectorized masking/sorting around the
scalar fallback.

So :func:`oracle_pairwise` and :func:`oracle_paired` are the one
batch-distance API: they take a :class:`Point` sequence or an
``(n, 2)`` array for each operand, hand arrays straight to exact
kernels, and build :class:`Point` objects from the rows only for the
other oracles, whose batch methods (third-party) or scalar
``distance`` need them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol, TypeAlias, runtime_checkable

import numpy as np

from repro.geometry.point import Point

if TYPE_CHECKING:  # batch is imported by distance; annotation-only cycle
    from repro.geometry.distance import DistanceOracle

__all__ = [
    "BatchDistanceOracle",
    "Points",
    "as_point_array",
    "supports_batch",
    "batch_kernels_exact",
    "oracle_pairwise",
    "oracle_paired",
]


#: A batch operand: :class:`Point` objects or their float64 ``(n, 2)``
#: coordinate rows.
Points: TypeAlias = Sequence[Point] | np.ndarray


@runtime_checkable
class BatchDistanceOracle(Protocol):
    """The optional vectorized face of a distance oracle."""

    def distance(self, a: Point, b: Point) -> float: ...

    def pairwise(self, sources: Sequence[Point], targets: Sequence[Point]) -> np.ndarray:
        """The ``(len(sources), len(targets))`` matrix ``D(source, target)`` in km."""
        ...

    def paired(self, sources: Sequence[Point], targets: Sequence[Point]) -> np.ndarray:
        """Elementwise ``D(sources[i], targets[i])``; lengths must match."""
        ...


def as_point_array(points: Sequence[Point] | np.ndarray, *, check_finite: bool = True) -> np.ndarray:
    """Pack points into a float64 ``(n, 2)`` array.

    Accepts a sequence of :class:`Point` or an already-packed array.
    Non-finite coordinates raise ``ValueError`` (the batch kernels'
    NaN/inf guard): a silent NaN would otherwise corrupt every masked
    comparison downstream instead of failing at the source.
    """
    if isinstance(points, np.ndarray):
        array = np.asarray(points, dtype=np.float64)
    else:
        array = np.array([(p.x, p.y) for p in points], dtype=np.float64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"expected (n, 2) point array, got shape {array.shape}")
    if check_finite and not np.isfinite(array).all():
        raise ValueError("non-finite coordinate in batch distance input")
    return array


def supports_batch(oracle: object) -> bool:
    """Whether ``oracle`` implements the batch API."""
    return callable(getattr(oracle, "pairwise", None))


def batch_kernels_exact(oracle: object) -> bool:
    """Whether the oracle's batch kernels are bit-identical to its scalar
    ``distance`` (the exactness contract above)."""
    return bool(getattr(oracle, "batch_exact", False)) and supports_batch(oracle)


def _as_points(points: Points) -> Sequence[Point]:
    """``points`` as :class:`Point` objects: a coordinate array's rows,
    or the sequence itself (the operand form every oracle takes)."""
    if not isinstance(points, np.ndarray):
        return points
    return [Point(x, y) for x, y in as_point_array(points, check_finite=False).tolist()]


def _scalar_pairwise(
    oracle: "DistanceOracle", sources: Sequence[Point], targets: Sequence[Point]
) -> np.ndarray:
    out = np.empty((len(sources), len(targets)), dtype=np.float64)
    distance = oracle.distance
    for i, a in enumerate(sources):
        row = out[i]
        for j, b in enumerate(targets):
            row[j] = distance(a, b)
    return out


def oracle_pairwise(
    oracle: "DistanceOracle",
    *,
    sources: Points,
    targets: Points,
    exact: bool = False,
) -> np.ndarray:
    """``(len(sources), len(targets))`` matrix through the best available path.

    ``sources`` are the rows — the first argument of the scalar
    reference ``D(source, target)`` (taxis, in dispatch code).
    ``exact=True`` restricts the kernel path to oracles honouring the
    exactness contract; others fall back to the scalar loop (whose
    entries are scalar ``distance`` calls by construction).
    """
    if not batch_kernels_exact(oracle):
        sources, targets = _as_points(sources), _as_points(targets)
        if exact or not supports_batch(oracle):
            return _scalar_pairwise(oracle, sources, targets)
    # repro-lint: disable=REP005 generic delegation: third-party oracles may name their parameters differently
    return np.asarray(oracle.pairwise(sources, targets), dtype=np.float64)


def oracle_paired(
    oracle: "DistanceOracle",
    *,
    sources: Points,
    targets: Points,
    exact: bool = False,
) -> np.ndarray:
    """Elementwise distances with the same dispatch rule as
    :func:`oracle_pairwise`; ``len(sources)`` must equal ``len(targets)``."""
    if len(sources) != len(targets):
        raise ValueError(f"paired inputs differ in length: {len(sources)} vs {len(targets)}")
    if not batch_kernels_exact(oracle):
        sources, targets = _as_points(sources), _as_points(targets)
        if exact or not callable(getattr(oracle, "paired", None)):
            distance = oracle.distance
            return np.array([distance(a, b) for a, b in zip(sources, targets)], dtype=np.float64)
    # repro-lint: disable=REP005 generic delegation: third-party oracles may name their parameters differently
    return np.asarray(oracle.paired(sources, targets), dtype=np.float64)
