"""Domain entities shared by every subsystem.

The paper's notation (Section III-A) maps onto these types as follows:

* ``t_i`` (idle taxi and its location)            → :class:`Taxi`
* ``r_j = (r_j^s, r_j^d)`` (passenger request)     → :class:`PassengerRequest`
* ``c_k`` (subset of requests sharing one taxi)    → :class:`RideGroup`
* ``S`` / ``S(r_j)`` (dispatch schedule / partner) → :class:`DispatchSchedule`

Identifiers are plain ints so entities stay lightweight and hashable;
dispatchers and the simulator index entities by id throughout.
"""

from __future__ import annotations

import operator
from collections.abc import Container
from dataclasses import dataclass, field

from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point

__all__ = [
    "PassengerRequest",
    "Taxi",
    "RideGroup",
    "RouteStop",
    "Assignment",
    "DispatchSchedule",
]


@dataclass(frozen=True, slots=True)
class RouteStop:
    """One stop of a taxi's plan: whose pickup or dropoff, and where."""

    request_id: int
    is_pickup: bool
    point: Point


@dataclass(frozen=True, slots=True)
class PassengerRequest:
    """A passenger request ``r_j = (r_j^s, r_j^d)``.

    Attributes
    ----------
    request_id:
        Unique id ``j``.  Algorithm 2's Rule 2 orders requests by this id.
    pickup:
        ``r_j^s``, the pick-up location.
    dropoff:
        ``r_j^d``, the drop-off location.
    request_time_s:
        When the request was issued, in seconds since simulation start.
        Used to batch requests into frames and to measure dispatch delay.
    passengers:
        Party size; a taxi without enough free seats is mutually
        unacceptable with this request (Section IV-A).
    """

    request_id: int
    pickup: Point
    dropoff: Point
    request_time_s: float = 0.0
    passengers: int = 1

    def trip_distance(self, oracle: DistanceOracle) -> float:
        """``D(r_j^s, r_j^d)``: the revenue-earning trip length in km."""
        return oracle.distance(self.pickup, self.dropoff)

    def __post_init__(self) -> None:
        if self.passengers < 1:
            raise ValueError(f"request {self.request_id} has {self.passengers} passengers")
        if self.request_time_s < 0.0:
            raise ValueError(f"request {self.request_id} has negative request time")


@dataclass(frozen=True, slots=True)
class Taxi:
    """An idle taxi ``t_i`` and its current location.

    Attributes
    ----------
    taxi_id:
        Unique id ``i``.
    location:
        Current position (the dispatch algorithms only see idle taxis'
        positions within the current frame).
    seats:
        Passenger capacity; 4 matches a standard sedan.
    """

    taxi_id: int
    location: Point
    seats: int = 4

    def can_carry(self, request: PassengerRequest) -> bool:
        """Whether this taxi has enough seats for ``request`` alone."""
        return request.passengers <= self.seats

    def __post_init__(self) -> None:
        if self.seats < 1:
            raise ValueError(f"taxi {self.taxi_id} has {self.seats} seats")


@dataclass(frozen=True, slots=True)
class RideGroup:
    """A feasible subset ``c_k`` of requests that share one taxi.

    The group owns its optimal shared route (computed once by the routing
    substrate) so that preference values for stage-two matching do not
    recompute the exhaustive search.

    Attributes
    ----------
    group_id:
        Unique id ``k`` within one dispatch round.
    requests:
        Member requests, ordered by request id for determinism.
    route:
        The optimal pickup-before-dropoff stop sequence as labeled
        :class:`RouteStop` entries.
    route_length_km:
        Total length of ``route`` (first stop to last stop).
    onboard_distance_km:
        ``D_ck(r_j^s, r_j^d)`` per member: distance along the route from
        the member's pickup to its dropoff, keyed by request id.
    pickup_offset_km:
        Distance along the route from the route start to each member's
        pickup, keyed by request id.  ``D_ck(t_i, r_j^s)`` is then
        ``D(t_i, route[0]) + pickup_offset_km[j]``.
    total_passengers:
        The members' combined party size, derived once at construction
        (``dataclasses.replace`` recomputes it).
    request_ids:
        The members' ids in member order, derived the same way; the
        group memo's key.
    """

    group_id: int
    requests: tuple[PassengerRequest, ...]
    route: tuple[RouteStop, ...]
    route_length_km: float
    onboard_distance_km: dict[int, float] = field(hash=False)
    pickup_offset_km: dict[int, float] = field(hash=False)
    total_passengers: int = field(init=False, repr=False, compare=False)
    request_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def route_start(self) -> Point:
        """Where a dispatched taxi must drive first."""
        return self.route[0].point

    def total_trip_distance(self, oracle: DistanceOracle) -> float:
        """``sum_j D(r_j^s, r_j^d)``: the pay-off term of the driver score."""
        return sum(r.trip_distance(oracle) for r in self.requests)

    def detour_km(self, request_id: int, oracle: DistanceOracle) -> float:
        """``D_ck(r_j^s, r_j^d) − D(r_j^s, r_j^d)`` for one member."""
        request = next(r for r in self.requests if r.request_id == request_id)
        return self.onboard_distance_km[request_id] - request.trip_distance(oracle)

    def relabeled(self, group_id: int) -> "RideGroup":
        """This group under another id, sharing every other field.

        The dispatchers' group memo hands out one cached group per
        frame; relabeling skips the re-validation and re-derivation of
        ``dataclasses.replace``, which the cached group already passed.
        """
        clone = object.__new__(RideGroup)
        for set_slot, value in zip(_RIDE_GROUP_SLOTS, _ride_group_values(self)):
            set_slot(clone, value)
        _set_group_id(clone, group_id)
        return clone

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a ride group must contain at least one request")
        ids = [r.request_id for r in self.requests]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate request ids in group {self.group_id}: {ids}")
        object.__setattr__(self, "total_passengers", sum(r.passengers for r in self.requests))
        object.__setattr__(self, "request_ids", tuple(ids))


_RIDE_GROUP_FIELDS = tuple(RideGroup.__dataclass_fields__)
# The slot descriptors' setters bypass the frozen __setattr__, as
# object.__setattr__ does, without its per-call attribute lookup.
_RIDE_GROUP_SLOTS = tuple(RideGroup.__dict__[name].__set__ for name in _RIDE_GROUP_FIELDS)
_ride_group_values = operator.attrgetter(*_RIDE_GROUP_FIELDS)
_set_group_id = RideGroup.__dict__["group_id"].__set__


@dataclass(frozen=True, slots=True)
class Assignment:
    """One dispatched unit: a taxi serving one request or one ride group.

    ``stops`` is the complete ordered plan the taxi will drive after
    reaching the first stop from its current location; every request id
    in ``request_ids`` appears exactly once as a pickup and once as a
    dropoff, with the pickup first.
    """

    taxi_id: int
    request_ids: tuple[int, ...]
    stops: tuple[RouteStop, ...]

    def __post_init__(self) -> None:
        if not self.request_ids:
            raise ValueError("an assignment must serve at least one request")
        if len(set(self.request_ids)) != len(self.request_ids):
            raise ValueError("duplicate request ids in assignment")
        pickup_seen: set[int] = set()
        dropoff_seen: set[int] = set()
        for stop in self.stops:
            if stop.is_pickup:
                if stop.request_id in pickup_seen:
                    raise ValueError(f"request {stop.request_id} picked up twice")
                pickup_seen.add(stop.request_id)
            else:
                if stop.request_id not in pickup_seen:
                    raise ValueError(f"request {stop.request_id} dropped off before pickup")
                if stop.request_id in dropoff_seen:
                    raise ValueError(f"request {stop.request_id} dropped off twice")
                dropoff_seen.add(stop.request_id)
        expected = set(self.request_ids)
        if pickup_seen != expected or dropoff_seen != expected:
            raise ValueError("stops must pick up and drop off exactly the assigned requests")

    def pickup_stop_of(self, request_id: int) -> RouteStop:
        """The pickup stop of ``request_id``; raises ``KeyError`` if absent."""
        for stop in self.stops:
            if stop.is_pickup and stop.request_id == request_id:
                return stop
        raise KeyError(request_id)


@dataclass(slots=True)
class DispatchSchedule:
    """A dispatch schedule ``S`` for one frame.

    ``taxi_of`` maps request id → taxi id (the paper's ``S(r_j)``); a
    request absent from the map is unserved in this frame and remains
    queued.  ``assignments`` carries route information for the simulator.
    """

    assignments: list[Assignment] = field(default_factory=list)

    @property
    def taxi_of(self) -> dict[int, int]:
        mapping: dict[int, int] = {}
        for assignment in self.assignments:
            for request_id in assignment.request_ids:
                mapping[request_id] = assignment.taxi_id
        return mapping

    @property
    def served_request_ids(self) -> set[int]:
        return {rid for a in self.assignments for rid in a.request_ids}

    @property
    def dispatched_taxi_ids(self) -> set[int]:
        return {a.taxi_id for a in self.assignments}

    def add(self, assignment: Assignment) -> None:
        self.assignments.append(assignment)

    def validate(self, taxis: list[Taxi], requests: list[PassengerRequest]) -> None:
        """Check structural sanity: no taxi or request appears twice and
        every id refers to a known entity.  Raises ``ValueError``.
        """
        self.validate_ids({t.taxi_id for t in taxis}, {r.request_id for r in requests})

    def validate_ids(self, taxi_ids: Container[int], request_ids: Container[int]) -> None:
        """:meth:`validate` against membership views instead of entity
        lists — the engine passes its live queue mapping so the check
        costs one lookup per assigned id rather than one id-set build
        per frame."""
        seen_taxis: set[int] = set()
        seen_requests: set[int] = set()
        for assignment in self.assignments:
            if assignment.taxi_id not in taxi_ids:
                raise ValueError(f"unknown taxi id {assignment.taxi_id}")
            if assignment.taxi_id in seen_taxis:
                raise ValueError(f"taxi {assignment.taxi_id} dispatched twice")
            seen_taxis.add(assignment.taxi_id)
            for request_id in assignment.request_ids:
                if request_id not in request_ids:
                    raise ValueError(f"unknown request id {request_id}")
                if request_id in seen_requests:
                    raise ValueError(f"request {request_id} served twice")
                seen_requests.add(request_id)
