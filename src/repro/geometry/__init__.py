"""Geometry substrate: points, distance oracles, and a spatial index."""

from repro.geometry.batch import (
    BatchDistanceOracle,
    as_point_array,
    batch_kernels_exact,
    oracle_paired,
    oracle_pairwise,
    supports_batch,
)
from repro.geometry.distance import (
    EARTH_RADIUS_KM,
    DistanceOracle,
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
    ScaledDistance,
    oracle_dominates_linf,
)
from repro.geometry.point import ORIGIN, Point
from repro.geometry.spatial_index import (
    GridSpatialIndex,
    cell_reach,
    grid_cells,
    pack_cell_keys,
)

__all__ = [
    "Point",
    "ORIGIN",
    "DistanceOracle",
    "BatchDistanceOracle",
    "EuclideanDistance",
    "ManhattanDistance",
    "HaversineDistance",
    "ScaledDistance",
    "GridSpatialIndex",
    "grid_cells",
    "pack_cell_keys",
    "cell_reach",
    "oracle_dominates_linf",
    "EARTH_RADIUS_KM",
    "as_point_array",
    "supports_batch",
    "batch_kernels_exact",
    "oracle_pairwise",
    "oracle_paired",
]
