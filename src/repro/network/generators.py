"""Synthetic city road networks.

:func:`grid_city` builds Manhattan-style lattice streets, the network
the road-oracle ablation dispatches on.  It returns a
:class:`repro.network.graph.RoadNetwork` whose coordinates are in
kilometres, so it can be used directly as a distance oracle in
experiments.
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.network.graph import RoadNetwork

__all__ = ["grid_city"]


def grid_city(rows: int, cols: int, block_km: float = 0.2) -> RoadNetwork:
    """A ``rows × cols`` street lattice with square blocks.

    Node ids are ``r * cols + c``; the network spans
    ``(cols−1)·block_km × (rows−1)·block_km`` kilometres.
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"grid needs at least 2x2 intersections, got {rows}x{cols}")
    if block_km <= 0.0:
        raise ValueError(f"block_km must be positive, got {block_km}")
    network = RoadNetwork()
    for r in range(rows):
        for c in range(cols):
            network.add_node(r * cols + c, Point(c * block_km, r * block_km))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                network.add_edge(node, node + 1, block_km)
            if r + 1 < rows:
                network.add_edge(node, node + cols, block_km)
    return network
