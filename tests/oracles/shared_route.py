"""The scalar exhaustive shared-route search.

The test oracle of :func:`repro.routing.shared_route.feasible_shared_route`,
which replaced it with a vectorised search over the same stop orders.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.core.errors import RoutingError
from repro.core.types import PassengerRequest, RouteStop
from repro.geometry import Point
from repro.geometry.distance import DistanceOracle
from repro.routing.shared_route import MAX_EXHAUSTIVE_GROUP, SharedRoute, _sequence_table

__all__ = ["scalar_shared_route"]


def scalar_shared_route(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    *,
    start: Point | None = None,
    max_detour_km: float | None = None,
) -> SharedRoute | None:
    """The scalar exhaustive route search: one dict of leg distances and
    one loop over the stop orders with the ``(length ± 1e-12, key)``
    tie-break chain.  The test oracle of
    :func:`repro.routing.shared_route.feasible_shared_route`."""
    n = len(requests)
    if n == 0:
        raise RoutingError("cannot route an empty group")
    if n > MAX_EXHAUSTIVE_GROUP:
        raise RoutingError(
            f"exhaustive routing supports groups of at most {MAX_EXHAUSTIVE_GROUP}, got {n}"
        )
    ids = [r.request_id for r in requests]
    if len(set(ids)) != n:
        raise RoutingError(f"duplicate request ids in group: {ids}")

    points: list[tuple[Point, Point]] = [(r.pickup, r.dropoff) for r in requests]

    # With at most 8 stops, memoizing the leg distances once beats
    # re-querying the oracle across the up-to-2520 candidate sequences.
    stop_points: list[Point] = [p for pair in points for p in pair]
    leg: dict[tuple[int, int], float] = {}
    for a in range(len(stop_points)):
        for b in range(len(stop_points)):
            if a != b:
                leg[(a, b)] = oracle.distance(stop_points[a], stop_points[b])
    start_leg: list[float] | None = None
    if start is not None:
        start_leg = [oracle.distance(start, p) for p in stop_points]
    direct = [leg[(2 * m, 2 * m + 1)] for m in range(n)]

    def stop_index(member: int, is_pickup: bool) -> int:
        return 2 * member + (0 if is_pickup else 1)

    best_length = math.inf
    best_sequence: tuple[tuple[int, bool], ...] | None = None
    best_key: tuple | None = None
    pickup_cum = [0.0] * n
    for sequence in _sequence_table(n).sequences:
        first = stop_index(*sequence[0])
        approach = 0.0 if start_leg is None else start_leg[first]
        cumulative = 0.0
        previous = first
        pickup_cum[sequence[0][0]] = 0.0
        detour_ok = True
        for member, is_pickup in sequence[1:]:
            index = stop_index(member, is_pickup)
            cumulative += leg[(previous, index)]
            previous = index
            if is_pickup:
                pickup_cum[member] = cumulative
            elif max_detour_km is not None:
                onboard = cumulative - pickup_cum[member]
                if onboard - direct[member] > max_detour_km + 1e-9:
                    detour_ok = False
                    break
        if not detour_ok:
            continue
        length = approach + cumulative
        key = tuple((ids[m], not p) for m, p in sequence)
        if length < best_length - 1e-12 or (
            abs(length - best_length) <= 1e-12 and (best_key is None or key < best_key)
        ):
            best_length = length
            best_sequence = sequence
            best_key = key

    if best_sequence is None:
        return None

    stops: list[RouteStop] = []
    cumulative = 0.0
    offsets_at: list[float] = []
    previous = None
    for member, is_pickup in best_sequence:
        point = points[member][0] if is_pickup else points[member][1]
        if previous is not None:
            cumulative += oracle.distance(previous, point)
        offsets_at.append(cumulative)
        stops.append(RouteStop(request_id=ids[member], is_pickup=is_pickup, point=point))
        previous = point

    pickup_offset: dict[int, float] = {}
    onboard: dict[int, float] = {}
    for stop, offset in zip(stops, offsets_at):
        if stop.is_pickup:
            pickup_offset[stop.request_id] = offset
        else:
            onboard[stop.request_id] = offset - pickup_offset[stop.request_id]

    route_length = offsets_at[-1] if start is None else best_length
    return SharedRoute(
        stops=tuple(stops),
        length_km=route_length,
        pickup_offset_km=pickup_offset,
        onboard_km=onboard,
    )
