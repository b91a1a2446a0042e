"""Route length of a stop sequence.

The insertion baselines (RAII, SARP) price a candidate insertion as the
increase in :func:`route_length`; the search over pickup/dropoff
positions lives in :meth:`repro.dispatch.sharing.plan.TaxiPlan.quote`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.types import RouteStop
from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point

__all__ = ["route_length"]


def route_length(stops: Sequence[RouteStop], oracle: DistanceOracle, start: Point | None = None) -> float:
    """Total length of a stop sequence, optionally from a start point."""
    length = 0.0
    previous = start
    for stop in stops:
        if previous is not None:
            length += oracle.distance(previous, stop.point)
        previous = stop.point
    return length
