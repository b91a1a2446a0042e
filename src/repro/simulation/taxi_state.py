"""Taxi agents: position and availability across frames."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SimulationConfig
from repro.core.errors import SimulationError
from repro.core.types import Assignment, PassengerRequest, Taxi
from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point

__all__ = ["TaxiAgent", "StopArrival"]


@dataclass(frozen=True, slots=True)
class StopArrival:
    """When the taxi reaches one stop of its plan."""

    request_id: int
    is_pickup: bool
    time_s: float
    point: Point


@dataclass(slots=True)
class TaxiAgent:
    """Mutable simulation state of one taxi."""

    taxi_id: int
    seats: int
    location: Point
    available_at_s: float = 0.0
    total_driven_km: float = 0.0
    completed_trips: int = 0
    served_requests: int = 0
    _destination: Point | None = field(default=None, repr=False)
    _snapshot: Taxi | None = field(default=None, repr=False)

    @classmethod
    def from_taxi(cls, taxi: Taxi) -> "TaxiAgent":
        return cls(taxi_id=taxi.taxi_id, seats=taxi.seats, location=taxi.location)

    def is_idle_at(self, time_s: float) -> bool:
        return self.available_at_s <= time_s

    def snapshot(self) -> Taxi:
        """The immutable view dispatchers see.

        Memoized on the location object: ``taxi_id`` and ``seats`` never
        change and every movement (``assign``, repositioning) rebinds
        ``location``, so an unchanged location object proves the cached
        view is current.  An agent idle across many frames therefore
        presents the *same* :class:`Taxi` each frame and allocates no
        new one.  (Warm-start dispatchers do not rely on this: they
        retain a taxi by its id and bit-equal facts.)
        """
        snap = self._snapshot
        if snap is None or snap.location is not self.location:
            snap = Taxi(taxi_id=self.taxi_id, location=self.location, seats=self.seats)
            self._snapshot = snap
        return snap

    def assign(
        self,
        assignment: Assignment,
        start_time_s: float,
        oracle: DistanceOracle,
        sim_config: SimulationConfig,
    ) -> list[StopArrival]:
        """Commit the taxi to ``assignment`` starting at ``start_time_s``.

        Returns the arrival schedule; the agent jumps to its final stop
        and becomes available when the last dropoff completes (the
        engine's frame granularity never observes the taxi mid-leg).
        """
        if not self.is_idle_at(start_time_s):
            raise SimulationError(
                f"taxi {self.taxi_id} assigned at {start_time_s} but busy until {self.available_at_s}"
            )
        if assignment.taxi_id != self.taxi_id:
            raise SimulationError(
                f"assignment for taxi {assignment.taxi_id} given to taxi {self.taxi_id}"
            )
        arrivals: list[StopArrival] = []
        clock = start_time_s
        position = self.location
        for stop in assignment.stops:
            leg_km = oracle.distance(position, stop.point)
            clock += sim_config.travel_time_s(leg_km)
            self.total_driven_km += leg_km
            position = stop.point
            arrivals.append(
                StopArrival(
                    request_id=stop.request_id,
                    is_pickup=stop.is_pickup,
                    time_s=clock,
                    point=stop.point,
                )
            )
        self.location = position
        self.available_at_s = clock
        self.completed_trips += 1
        self.served_requests += len(assignment.request_ids)
        return arrivals

    def assign_single(
        self,
        request: PassengerRequest,
        start_time_s: float,
        pickup_leg_km: float,
        trip_km: float,
        sim_config: SimulationConfig,
    ) -> tuple[float, float]:
        """:meth:`assign` specialised to the canonical non-sharing plan.

        Applies exactly the state updates :meth:`assign` would for a
        two-stop pickup→dropoff assignment of ``request`` — same
        operations in the same order, so every accumulated float is
        bit-identical — and returns ``(pickup_time_s, dropoff_time_s)``
        instead of building :class:`StopArrival` objects.  The caller
        supplies the two leg lengths and owes bit-equality with the
        scalar oracle (the engine passes distances it already computed
        for the frame's metrics under the batch-exactness contract);
        ownership of the assignment is the caller's to check.
        """
        if not self.is_idle_at(start_time_s):
            raise SimulationError(
                f"taxi {self.taxi_id} assigned at {start_time_s} but busy until {self.available_at_s}"
            )
        clock = start_time_s + sim_config.travel_time_s(pickup_leg_km)
        self.total_driven_km += pickup_leg_km
        pickup_time_s = clock
        clock += sim_config.travel_time_s(trip_km)
        self.total_driven_km += trip_km
        self.location = request.dropoff
        self.available_at_s = clock
        self.completed_trips += 1
        self.served_requests += 1
        return pickup_time_s, clock
