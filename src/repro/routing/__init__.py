"""Shared-ride routing substrate."""

from repro.routing.insertion import route_length
from repro.routing.shared_route import (
    MAX_EXHAUSTIVE_GROUP,
    RouteStop,
    SharedRoute,
    build_ride_group,
    count_feasible_sequences,
    feasible_shared_route,
    optimal_shared_route,
)

__all__ = [
    "RouteStop",
    "SharedRoute",
    "optimal_shared_route",
    "feasible_shared_route",
    "build_ride_group",
    "count_feasible_sequences",
    "MAX_EXHAUSTIVE_GROUP",
    "route_length",
]
