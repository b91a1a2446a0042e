"""Road-network substrate: graphs, generators, and shortest paths."""

from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import SingleSourceCache, dijkstra

__all__ = [
    "RoadNetwork",
    "grid_city",
    "dijkstra",
    "SingleSourceCache",
]
