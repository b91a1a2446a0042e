"""The streaming core's discrete-event queue and its event vocabulary.

The batch engine materializes one frame per minute whether or not
anything happened in it; the streaming engine instead advances a
**monotonic virtual clock** over two event kinds:

* :class:`RequestArrival` — a passenger enters the pending queue.  The
  trace is pre-sorted by ``(request_time_s, request_id)`` and arrivals
  are fed lazily (each popped arrival schedules the next), so the heap
  holds at most one unarrived request at a time and equal-time arrivals
  pop in the batch engine's admission order.
* :class:`MatchingEpoch` — the dispatcher runs over the currently idle
  taxis and pending requests.  Epochs self-schedule: processing the
  epoch at ``T`` enqueues the next at ``T + frame_length_s`` by the
  same float accumulation the batch loop uses, so the epoch times are
  *bit-equal* to the batch frame times.

Taxi idleness is not an event: the epoch reads it from the run core's
``available_at`` array with the batch engine's inclusive
``available_at <= time_s`` scan.

**Ordering contract.**  Events pop in ``(time_s, priority, seq)``
order with priorities ``arrival < epoch``: every request arriving *at*
time ``T`` is visible to the matching epoch at ``T``, mirroring the
batch engine's inclusive ``request_time_s <= time_s`` admission.  ``seq`` is
the push ticket, so equal-(time, priority) events pop in push order —
deterministic by construction, never by object identity.

The queue enforces clock monotonicity: pushing an event earlier than
the last popped time raises :class:`~repro.core.errors.SimulationError`
(such an event could never be processed causally).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.core.errors import SimulationError
from repro.core.types import PassengerRequest

__all__ = [
    "PRIORITY_REQUEST_ARRIVAL",
    "PRIORITY_MATCHING_EPOCH",
    "RequestArrival",
    "MatchingEpoch",
    "Event",
    "EventQueue",
]


#: Same-timestamp processing order (lower pops first).  Arrivals at time
#: ``T`` precede the epoch at ``T`` so the epoch sees them — the batch
#: engine's inclusive ``<= time_s`` admission, as events.
PRIORITY_REQUEST_ARRIVAL = 0
PRIORITY_MATCHING_EPOCH = 1


@dataclass(frozen=True, slots=True)
class RequestArrival:
    """A passenger request entering the pending queue at its trace time."""

    request: PassengerRequest


@dataclass(frozen=True, slots=True)
class MatchingEpoch:
    """A dispatch round over the idle fleet and pending queue."""


Event = RequestArrival | MatchingEpoch


class EventQueue:
    """A deterministic min-heap of timestamped events.

    Entries are ``(time_s, priority, seq, event)`` tuples; ``seq`` is a
    monotone push counter, so comparison never reaches the event object
    and equal-keyed events pop in push order.  ``popped`` / ``pushed``
    and the per-kind counters feed the run's streaming telemetry.
    """

    __slots__ = ("_heap", "_seq", "_last_popped_s", "pushed", "popped")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._last_popped_s = float("-inf")
        self.pushed = 0
        self.popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def clock_s(self) -> float:
        """The virtual clock: timestamp of the last popped event."""
        return self._last_popped_s

    def push(self, time_s: float, priority: int, event: Event) -> None:
        """Schedule ``event`` at ``time_s`` (within its priority class).

        Raises :class:`~repro.core.errors.SimulationError` if ``time_s``
        precedes the virtual clock — a causality violation no discrete-
        event schedule may contain — or is not a finite number.
        """
        if not math.isfinite(time_s):
            raise SimulationError(f"event time must be finite, got {time_s}")
        if time_s < self._last_popped_s:
            raise SimulationError(
                f"event at t={time_s} scheduled before the virtual clock "
                f"t={self._last_popped_s}"
            )
        heapq.heappush(self._heap, (time_s, priority, self._seq, event))
        self._seq += 1
        self.pushed += 1

    def peek_time(self) -> float | None:
        """Timestamp of the next event, or ``None`` on an empty queue."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[float, Event]:
        """Remove and return the next ``(time_s, event)``, advancing the
        virtual clock.  Raises on an empty queue."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time_s, _, _, event = heapq.heappop(self._heap)
        self._last_popped_s = time_s
        self.popped += 1
        return time_s, event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventQueue(len={len(self._heap)}, clock_s={self._last_popped_s}, "
            f"pushed={self.pushed})"
        )
