"""Unit tests for the taxi agent state machine."""

import pytest

from repro.core import PassengerRequest, SimulationConfig, Taxi
from repro.core.errors import SimulationError
from repro.dispatch import single_assignment
from repro.geometry import EuclideanDistance, Point
from repro.simulation import TaxiAgent


@pytest.fixture()
def oracle():
    return EuclideanDistance()


@pytest.fixture()
def config():
    return SimulationConfig(taxi_speed_kmh=60.0)  # 1 km per minute


class TestAssign:
    def test_arrival_times_and_final_state(self, oracle, config):
        agent = TaxiAgent.from_taxi(Taxi(0, Point(0, 0)))
        request = PassengerRequest(1, Point(2, 0), Point(5, 0))
        assignment = single_assignment(agent.snapshot(), request)
        arrivals = agent.assign(assignment, 100.0, oracle, config)
        # 2 km to pickup at 1 km/min = 120 s; 3 km more to dropoff.
        assert arrivals[0].time_s == pytest.approx(100.0 + 120.0)
        assert arrivals[0].is_pickup
        assert arrivals[1].time_s == pytest.approx(100.0 + 120.0 + 180.0)
        assert agent.location == Point(5, 0)
        assert agent.available_at_s == pytest.approx(400.0)
        assert agent.total_driven_km == pytest.approx(5.0)
        assert agent.completed_trips == 1
        assert agent.served_requests == 1

    def test_busy_taxi_rejects_assignment(self, oracle, config):
        agent = TaxiAgent.from_taxi(Taxi(0, Point(0, 0)))
        request = PassengerRequest(1, Point(2, 0), Point(5, 0))
        agent.assign(single_assignment(agent.snapshot(), request), 0.0, oracle, config)
        request2 = PassengerRequest(2, Point(5, 0), Point(6, 0))
        with pytest.raises(SimulationError):
            agent.assign(single_assignment(agent.snapshot(), request2), 10.0, oracle, config)

    def test_idle_again_after_completion(self, oracle, config):
        agent = TaxiAgent.from_taxi(Taxi(0, Point(0, 0)))
        request = PassengerRequest(1, Point(1, 0), Point(2, 0))
        agent.assign(single_assignment(agent.snapshot(), request), 0.0, oracle, config)
        assert not agent.is_idle_at(60.0)
        assert agent.is_idle_at(agent.available_at_s)

    def test_wrong_taxi_id_rejected(self, oracle, config):
        agent = TaxiAgent.from_taxi(Taxi(0, Point(0, 0)))
        other = Taxi(9, Point(0, 0))
        request = PassengerRequest(1, Point(1, 0), Point(2, 0))
        with pytest.raises(SimulationError):
            agent.assign(single_assignment(other, request), 0.0, oracle, config)

    def test_snapshot_reflects_current_position(self, oracle, config):
        agent = TaxiAgent.from_taxi(Taxi(3, Point(0, 0), seats=6))
        request = PassengerRequest(1, Point(1, 0), Point(2, 0))
        agent.assign(single_assignment(agent.snapshot(), request), 0.0, oracle, config)
        snap = agent.snapshot()
        assert snap.taxi_id == 3
        assert snap.seats == 6
        assert snap.location == Point(2, 0)


class TestSnapshotMemoization:
    """An unmoved agent presents the same object: no per-frame allocation."""

    def test_idle_agent_presents_the_same_object(self, oracle, config):
        agent = TaxiAgent.from_taxi(Taxi(0, Point(1, 1)))
        first = agent.snapshot()
        # Many frames of idleness: the engine calls snapshot() per
        # frame and gets the cached view back each time.
        assert all(agent.snapshot() is first for _ in range(3))

    def test_movement_rebinds_the_snapshot(self, oracle, config):
        agent = TaxiAgent.from_taxi(Taxi(0, Point(0, 0)))
        before = agent.snapshot()
        request = PassengerRequest(1, Point(1, 0), Point(2, 0))
        agent.assign(single_assignment(before, request), 0.0, oracle, config)
        after = agent.snapshot()
        assert after is not before
        assert after.location == Point(2, 0)
        # Repositioning rebinds ``location`` directly; that alone must
        # invalidate the memo even though no assignment happened.
        agent.location = Point(3, 0)
        moved = agent.snapshot()
        assert moved is not after
        assert moved.location == Point(3, 0)
        assert agent.snapshot() is moved
