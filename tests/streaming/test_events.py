"""Event-queue ordering, determinism and monotonicity contracts.

The streaming engine's batch equivalence rests on the queue popping
same-timestamp events in priority order (arrivals before the epoch)
with FIFO ties — and on the virtual clock never running
backwards.  These tests pin exactly those contracts.
"""

import math

import pytest

from repro.core.errors import SimulationError
from repro.core.types import PassengerRequest
from repro.geometry import Point
from repro.streaming import (
    PRIORITY_MATCHING_EPOCH,
    PRIORITY_REQUEST_ARRIVAL,
    EventQueue,
    MatchingEpoch,
    RequestArrival,
)


def _request(rid: int, t: float = 0.0) -> PassengerRequest:
    return PassengerRequest(
        request_id=rid,
        pickup=Point(0.0, 0.0),
        dropoff=Point(1.0, 0.0),
        request_time_s=t,
    )


class TestEventOrdering:
    def test_priorities_break_timestamp_ties(self):
        """At one timestamp: arrivals before the epoch.

        That is what makes an epoch at time T see every request arriving
        at T — the batch engine's inclusive ``<=`` admission.
        """
        q = EventQueue()
        q.push(60.0, PRIORITY_MATCHING_EPOCH, MatchingEpoch())
        q.push(60.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(1)))
        q.push(60.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(2)))
        kinds = [type(q.pop()[1]) for _ in range(3)]
        assert kinds == [RequestArrival, RequestArrival, MatchingEpoch]

    def test_time_dominates_priority(self):
        q = EventQueue()
        q.push(120.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(1, 120.0)))
        q.push(60.0, PRIORITY_MATCHING_EPOCH, MatchingEpoch())
        assert isinstance(q.pop()[1], MatchingEpoch)
        assert isinstance(q.pop()[1], RequestArrival)

    def test_fifo_within_same_time_and_priority(self):
        q = EventQueue()
        for rid in (7, 3, 9):
            q.push(60.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(rid)))
        popped = [q.pop()[1].request.request_id for _ in range(3)]
        assert popped == [7, 3, 9]

    def test_pop_returns_time(self):
        q = EventQueue()
        q.push(42.5, PRIORITY_MATCHING_EPOCH, MatchingEpoch())
        time_s, event = q.pop()
        assert time_s == pytest.approx(42.5)
        assert isinstance(event, MatchingEpoch)


class TestMonotonicity:
    def test_push_before_clock_rejected(self):
        q = EventQueue()
        q.push(100.0, PRIORITY_MATCHING_EPOCH, MatchingEpoch())
        q.pop()
        with pytest.raises(SimulationError):
            q.push(99.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(0, 99.0)))

    def test_push_at_clock_allowed(self):
        """Same-timestamp pushes stay legal (an arrival chained *at*
        the current clock time must be admissible)."""
        q = EventQueue()
        q.push(100.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(0, 100.0)))
        q.pop()
        q.push(100.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(1, 100.0)))
        assert q.pop()[0] == pytest.approx(100.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push(bad, PRIORITY_MATCHING_EPOCH, MatchingEpoch())

    def test_clock_tracks_last_pop(self):
        q = EventQueue()
        q.push(10.0, PRIORITY_MATCHING_EPOCH, MatchingEpoch())
        q.push(20.0, PRIORITY_MATCHING_EPOCH, MatchingEpoch())
        assert q.clock_s == -math.inf
        q.pop()
        assert q.clock_s == pytest.approx(10.0)
        q.pop()
        assert q.clock_s == pytest.approx(20.0)


class TestCountersAndViews:
    def test_len_bool_peek_and_counters(self):
        q = EventQueue()
        assert not q and len(q) == 0 and q.peek_time() is None
        q.push(5.0, PRIORITY_REQUEST_ARRIVAL, RequestArrival(_request(1, 5.0)))
        q.push(3.0, PRIORITY_MATCHING_EPOCH, MatchingEpoch())
        assert q and len(q) == 2
        assert q.peek_time() == pytest.approx(3.0)
        q.pop()
        q.pop()
        assert q.pushed == 2
        assert q.popped == 2
        assert not q
