"""Unit tests for the core domain entities."""

from dataclasses import replace

import pytest

from repro.core import (
    Assignment,
    DispatchSchedule,
    PassengerRequest,
    RideGroup,
    RouteStop,
    Taxi,
)
from repro.geometry import EuclideanDistance, Point


@pytest.fixture()
def oracle():
    return EuclideanDistance()


def stop(rid, pickup, x, y):
    return RouteStop(request_id=rid, is_pickup=pickup, point=Point(x, y))


class TestPassengerRequest:
    def test_trip_distance(self, oracle):
        request = PassengerRequest(1, Point(0.0, 0.0), Point(3.0, 4.0))
        assert request.trip_distance(oracle) == pytest.approx(5.0)

    def test_rejects_non_positive_party(self):
        with pytest.raises(ValueError):
            PassengerRequest(1, Point(0, 0), Point(1, 1), passengers=0)

    def test_rejects_negative_request_time(self):
        with pytest.raises(ValueError):
            PassengerRequest(1, Point(0, 0), Point(1, 1), request_time_s=-1.0)

    def test_is_hashable_and_frozen(self):
        request = PassengerRequest(1, Point(0, 0), Point(1, 1))
        assert hash(request) is not None
        with pytest.raises(AttributeError):
            request.request_id = 2


class TestTaxi:
    def test_can_carry_respects_seats(self):
        taxi = Taxi(0, Point(0, 0), seats=2)
        assert taxi.can_carry(PassengerRequest(1, Point(0, 0), Point(1, 1), passengers=2))
        assert not taxi.can_carry(PassengerRequest(2, Point(0, 0), Point(1, 1), passengers=3))

    def test_rejects_zero_seats(self):
        with pytest.raises(ValueError):
            Taxi(0, Point(0, 0), seats=0)


class TestRideGroup:
    def _group(self, oracle):
        r1 = PassengerRequest(1, Point(0, 0), Point(4, 0))
        r2 = PassengerRequest(2, Point(1, 0), Point(3, 0))
        route = (
            stop(1, True, 0, 0),
            stop(2, True, 1, 0),
            stop(2, False, 3, 0),
            stop(1, False, 4, 0),
        )
        return RideGroup(
            group_id=0,
            requests=(r1, r2),
            route=route,
            route_length_km=4.0,
            onboard_distance_km={1: 4.0, 2: 2.0},
            pickup_offset_km={1: 0.0, 2: 1.0},
        )

    def test_accessors(self, oracle):
        group = self._group(oracle)
        assert group.size == 2
        assert group.request_ids == (1, 2)
        assert group.total_passengers == 2
        assert group.route_start == Point(0, 0)
        assert group.total_trip_distance(oracle) == pytest.approx(6.0)

    def test_detour_is_onboard_minus_direct(self, oracle):
        group = self._group(oracle)
        assert group.detour_km(1, oracle) == pytest.approx(0.0)
        assert group.detour_km(2, oracle) == pytest.approx(0.0)

    def test_replace_recomputes_total_passengers(self, oracle):
        group = self._group(oracle)
        party = PassengerRequest(3, Point(0, 1), Point(4, 1), passengers=3)
        grown = replace(group, requests=(*group.requests, party))
        assert group.total_passengers == 2
        assert grown.total_passengers == 5

    def test_relabeled_keeps_every_other_field(self, oracle):
        group = self._group(oracle)
        moved = group.relabeled(7)
        assert moved.group_id == 7
        assert replace(moved, group_id=0) == group
        assert moved.total_passengers == group.total_passengers
        assert group.group_id == 0

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            RideGroup(0, (), (), 0.0, {}, {})

    def test_rejects_duplicate_members(self):
        r1 = PassengerRequest(1, Point(0, 0), Point(1, 0))
        with pytest.raises(ValueError):
            RideGroup(0, (r1, r1), (stop(1, True, 0, 0),), 0.0, {}, {})


class TestAssignment:
    def test_valid_single(self):
        assignment = Assignment(
            taxi_id=0,
            request_ids=(1,),
            stops=(stop(1, True, 0, 0), stop(1, False, 1, 0)),
        )
        assert assignment.pickup_stop_of(1).point == Point(0, 0)

    def test_rejects_dropoff_before_pickup(self):
        with pytest.raises(ValueError, match="before pickup"):
            Assignment(0, (1,), (stop(1, False, 1, 0), stop(1, True, 0, 0)))

    def test_rejects_double_pickup(self):
        with pytest.raises(ValueError, match="twice"):
            Assignment(
                0,
                (1,),
                (stop(1, True, 0, 0), stop(1, True, 0, 0), stop(1, False, 1, 0)),
            )

    def test_rejects_stop_set_mismatch(self):
        with pytest.raises(ValueError, match="exactly"):
            Assignment(0, (1, 2), (stop(1, True, 0, 0), stop(1, False, 1, 0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Assignment(0, (), ())

    def test_pickup_stop_of_unknown_raises(self):
        assignment = Assignment(0, (1,), (stop(1, True, 0, 0), stop(1, False, 1, 0)))
        with pytest.raises(KeyError):
            assignment.pickup_stop_of(9)


class TestDispatchSchedule:
    def _assignment(self, taxi_id, rid):
        return Assignment(
            taxi_id, (rid,), (stop(rid, True, 0, 0), stop(rid, False, 1, 0))
        )

    def test_maps(self):
        schedule = DispatchSchedule()
        schedule.add(self._assignment(0, 1))
        schedule.add(self._assignment(1, 2))
        assert schedule.taxi_of == {1: 0, 2: 1}
        assert schedule.served_request_ids == {1, 2}
        assert schedule.dispatched_taxi_ids == {0, 1}

    def test_validate_catches_duplicate_taxi(self):
        schedule = DispatchSchedule()
        schedule.add(self._assignment(0, 1))
        schedule.add(self._assignment(0, 2))
        taxis = [Taxi(0, Point(0, 0))]
        requests = [
            PassengerRequest(1, Point(0, 0), Point(1, 0)),
            PassengerRequest(2, Point(0, 0), Point(1, 0)),
        ]
        with pytest.raises(ValueError, match="dispatched twice"):
            schedule.validate(taxis, requests)

    def test_validate_catches_unknown_ids(self):
        schedule = DispatchSchedule()
        schedule.add(self._assignment(7, 1))
        with pytest.raises(ValueError, match="unknown taxi"):
            schedule.validate([Taxi(0, Point(0, 0))], [PassengerRequest(1, Point(0, 0), Point(1, 0))])

    def test_validate_catches_duplicate_request(self):
        schedule = DispatchSchedule()
        schedule.add(self._assignment(0, 1))
        schedule.add(self._assignment(1, 1))
        taxis = [Taxi(0, Point(0, 0)), Taxi(1, Point(1, 1))]
        with pytest.raises(ValueError, match="served twice"):
            schedule.validate(taxis, [PassengerRequest(1, Point(0, 0), Point(1, 0))])
