"""Optimal shared-ride routes by exhaustive search.

Theorem 5 proves that routing a shared taxi — a directed shortest path
visiting every member's pickup before its dropoff — is NP-hard in
general.  The paper then observes that real shared rides carry at most
three requests, so the route can be searched exhaustively: for
``|c_k| = 3`` there are ``6!/(2·2·2) = 90`` feasible stop sequences.

:func:`optimal_shared_route` scores exactly the precedence-feasible
interleavings (not all permutations) by total length, and returns a
:class:`SharedRoute` carrying the per-member quantities the sharing
preference model needs:

* ``pickup_offset_km[j]`` — distance from the route start to ``r_j``'s
  pickup, so ``D_ck(t_i, r_j^s) = D(t_i, route[0]) + offset``;
* ``onboard_km[j]`` — ``D_ck(r_j^s, r_j^d)``, the member's distance along
  the route, whose excess over the direct trip is the sharing detour.

**Table-driven search.**  The stop orders of an ``n``-member group are
generated once (a recursive generator) and memoized as an ``(m, 2n)``
stop-index table.  One search is then one ``exact=True`` leg-matrix
kernel call over the group's ``2n`` stops, one gather of every
sequence's legs, and a row-wise ``cumsum`` behind a zero column; the
detour filter runs on the same cumulative array.  ``cumsum`` adds
sequentially, so every length and offset is the scalar
``cumulative += leg`` result bit for bit, and the ``(length ± 1e-12,
key)`` tie-break chain then runs over the lengths in sequence order
exactly as a scalar loop would, building key tuples only on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.errors import RoutingError
from repro.core.types import PassengerRequest, RideGroup, RouteStop
from repro.geometry.batch import oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point

__all__ = [
    "RouteStop",
    "SharedRoute",
    "feasible_shared_route",
    "optimal_shared_route",
    "build_ride_group",
    "count_feasible_sequences",
]

MAX_EXHAUSTIVE_GROUP = 4


@dataclass(frozen=True, slots=True)
class SharedRoute:
    """An optimal stop sequence for one ride group."""

    stops: tuple[RouteStop, ...]
    length_km: float
    pickup_offset_km: dict[int, float]
    onboard_km: dict[int, float]

    @property
    def start(self) -> Point:
        return self.stops[0].point

    @property
    def end(self) -> Point:
        return self.stops[-1].point

    def detour_km(self, request: PassengerRequest, oracle: DistanceOracle) -> float:
        """The member's extra on-board distance caused by sharing."""
        return self.onboard_km[request.request_id] - request.trip_distance(oracle)


@dataclass(frozen=True, slots=True)
class _SequenceTable:
    """The stop orders of an ``n``-member group as index arrays.

    Stop ``2m`` is member ``m``'s pickup and ``2m + 1`` its dropoff.
    """

    sequences: tuple[tuple[tuple[int, bool], ...], ...]
    #: ``(m, 2n)`` stop index of each position of each sequence.
    stops: np.ndarray
    #: ``(m, 2n)`` flat index into the ``(2n)²`` leg matrix with a zero
    #: appended: column 0 points at the zero, column ``k`` at the leg
    #: into stop ``k``.
    leg_index: np.ndarray
    #: ``(m, n)`` positions of each member's pickup / dropoff.
    pickup_pos: np.ndarray
    dropoff_pos: np.ndarray
    #: Leg-matrix (row, column) indices of each member's direct
    #: pickup → dropoff leg.
    direct_legs: tuple[np.ndarray, np.ndarray]


_TABLE_CACHE: dict[int, _SequenceTable] = {}


def _sequence_table(n: int) -> _SequenceTable:
    """The memoized :class:`_SequenceTable` of an ``n``-member group."""
    cached = _TABLE_CACHE.get(n)
    if cached is None:
        sequences = tuple(_feasible_sequences(n))
        stops = np.array(
            [[2 * m + (0 if p else 1) for m, p in sequence] for sequence in sequences],
            dtype=np.intp,
        )
        width = 2 * n
        leg_index = np.empty_like(stops)
        leg_index[:, 0] = width * width
        leg_index[:, 1:] = stops[:, :-1] * width + stops[:, 1:]
        position = np.argsort(stops, axis=1)
        members = np.arange(n)
        cached = _SequenceTable(
            sequences=sequences,
            stops=stops,
            leg_index=leg_index,
            pickup_pos=position[:, 0::2],
            dropoff_pos=position[:, 1::2],
            direct_legs=(2 * members, 2 * members + 1),
        )
        _TABLE_CACHE[n] = cached
    return cached


def _feasible_sequences(n: int) -> Iterator[tuple[tuple[int, bool], ...]]:
    """All stop orders where request ``i``'s pickup precedes its dropoff.

    Stops are ``(member_index, is_pickup)``; generated recursively by
    extending with any un-picked pickup or any picked-but-not-dropped
    dropoff, which enumerates exactly the ``(2n)!/2^n`` valid orders.
    """
    sequence: list[tuple[int, bool]] = []
    picked = [False] * n
    dropped = [False] * n

    def extend() -> Iterator[tuple[tuple[int, bool], ...]]:
        if len(sequence) == 2 * n:
            yield tuple(sequence)
            return
        for i in range(n):
            if not picked[i]:
                picked[i] = True
                sequence.append((i, True))
                yield from extend()
                sequence.pop()
                picked[i] = False
            elif not dropped[i]:
                dropped[i] = True
                sequence.append((i, False))
                yield from extend()
                sequence.pop()
                dropped[i] = False

    yield from extend()


def count_feasible_sequences(n: int) -> int:
    """``(2n)!/2^n``: the count the paper quotes (90 for n = 3)."""
    return math.factorial(2 * n) // (2**n)


def feasible_shared_route(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    *,
    start: Point | None = None,
    max_detour_km: float | None = None,
) -> SharedRoute | None:
    """The shortest precedence-feasible route, or ``None`` if constrained
    away.

    Parameters
    ----------
    requests:
        The group members (1 to ``MAX_EXHAUSTIVE_GROUP`` of them).
    oracle:
        Distance oracle for leg lengths.
    start:
        Optional taxi position: when given, the objective includes the
        leg from ``start`` to the first stop (stage-two refinement);
        when omitted the route is taxi-independent, as in the paper's
        packing stage.
    max_detour_km:
        When given, only sequences keeping **every** member's detour
        (on-board distance minus direct trip) within this bound compete;
        the result is the shortest θ-respecting route, and ``None``
        means the group cannot share within θ.  This is the route a
        dispatched taxi actually drives, so committed rides always honor
        the bound the passengers agreed to.  For metric oracles this
        definition makes sharing feasibility downward-closed (deleting a
        member's stops never lengthens the others' on-board distances),
        which the enumeration pruning relies on.

    Ties between equally short sequences break toward the
    lexicographically smallest ``(request_id, is_pickup)`` sequence, so
    results are deterministic.
    """
    n = len(requests)
    if n == 0:
        raise RoutingError("cannot route an empty group")
    if n > MAX_EXHAUSTIVE_GROUP:
        raise RoutingError(
            f"exhaustive routing supports groups of at most {MAX_EXHAUSTIVE_GROUP}, got {n}"
        )
    if n == 1 and start is None and max_detour_km is None:
        # A lone request has one order, pickup then dropoff; its offsets
        # are the search's own sums (0.0, then 0.0 + the trip leg).
        request = requests[0]
        rid = request.request_id
        trip = 0.0 + oracle.distance(request.pickup, request.dropoff)
        return SharedRoute(
            stops=(
                RouteStop(request_id=rid, is_pickup=True, point=request.pickup),
                RouteStop(request_id=rid, is_pickup=False, point=request.dropoff),
            ),
            length_km=trip,
            pickup_offset_km={rid: 0.0},
            onboard_km={rid: trip - 0.0},
        )
    ids = [r.request_id for r in requests]
    if len(set(ids)) != n:
        raise RoutingError(f"duplicate request ids in group: {ids}")

    # Stop 2m is member m's pickup, 2m + 1 its dropoff.  One exact
    # kernel call yields every leg (bit-identical to scalar distance).
    stop_points = [p for r in requests for p in (r.pickup, r.dropoff)]
    leg = oracle_pairwise(oracle, sources=stop_points, targets=stop_points, exact=True)
    table = _sequence_table(n)
    # offsets[s, k]: distance along sequence s from its first stop to
    # its k-th stop.  The zero column plus a sequential row cumsum is
    # the scalar ``cumulative = 0.0; cumulative += leg`` operation for
    # operation.
    offsets = np.cumsum(np.append(leg.ravel(), 0.0)[table.leg_index], axis=1)
    if start is None:
        lengths = offsets[:, -1]
    else:
        start_leg = oracle_pairwise(oracle, sources=[start], targets=stop_points, exact=True)
        lengths = start_leg[0, table.stops[:, 0]] + offsets[:, -1]
    candidates: Sequence[int] = range(len(table.sequences))
    if max_detour_km is not None:
        direct = leg[table.direct_legs]
        onboard = (
            np.take_along_axis(offsets, table.dropoff_pos, axis=1)
            - np.take_along_axis(offsets, table.pickup_pos, axis=1)
        )
        too_long = (onboard - direct > max_detour_km + 1e-9).any(axis=1)
        candidates = np.flatnonzero(~too_long).tolist()

    def key(s: int) -> tuple[tuple[int, bool], ...]:
        return tuple((ids[m], not p) for m, p in table.sequences[s])

    length_of = lengths.tolist()
    best_length = math.inf
    best = -1
    best_key: tuple | None = None
    for s in candidates:
        length = length_of[s]
        if length < best_length - 1e-12:
            best_length, best, best_key = length, s, None
        elif abs(length - best_length) <= 1e-12:
            # Keys only matter on a tie; build them then.
            if best_key is None:
                best_key = key(best)
            candidate_key = key(s)
            if candidate_key < best_key:
                best_length, best, best_key = length, s, candidate_key

    if best < 0:
        return None

    offsets_at = offsets[best].tolist()
    stops = tuple(
        RouteStop(request_id=ids[m], is_pickup=p, point=stop_points[2 * m + (0 if p else 1)])
        for m, p in table.sequences[best]
    )
    pickup_offset: dict[int, float] = {}
    onboard_km: dict[int, float] = {}
    for stop, offset in zip(stops, offsets_at):
        if stop.is_pickup:
            pickup_offset[stop.request_id] = offset
        else:
            onboard_km[stop.request_id] = offset - pickup_offset[stop.request_id]

    route_length = offsets_at[-1] if start is None else best_length
    return SharedRoute(
        stops=stops,
        length_km=route_length,
        pickup_offset_km=pickup_offset,
        onboard_km=onboard_km,
    )


def optimal_shared_route(
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    *,
    start: Point | None = None,
    max_detour_km: float | None = None,
) -> SharedRoute:
    """Like :func:`feasible_shared_route` but raising on infeasibility."""
    route = feasible_shared_route(
        requests, oracle, start=start, max_detour_km=max_detour_km
    )
    if route is None:
        raise RoutingError(
            f"no route keeps every member's detour within {max_detour_km} km"
        )
    return route


def build_ride_group(
    group_id: int,
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    *,
    max_detour_km: float | None = None,
    route: SharedRoute | None = None,
) -> RideGroup:
    """A :class:`RideGroup` carrying its optimal taxi-independent route.

    ``route`` skips the search when the caller already holds the
    group's route: it must be the result of routing the members in
    request-id order with the same ``max_detour_km`` (the feasibility
    enumeration routes each candidate once and passes it here).
    """
    ordered = tuple(sorted(requests, key=lambda r: r.request_id))
    if route is None:
        route = optimal_shared_route(ordered, oracle, max_detour_km=max_detour_km)
    return RideGroup(
        group_id=group_id,
        requests=ordered,
        route=route.stops,
        route_length_km=route.length_km,
        onboard_distance_km=dict(route.onboard_km),
        pickup_offset_km=dict(route.pickup_offset_km),
    )
