"""Per-frame memo of batched distance work shared across a dispatch frame.

Every dispatcher in the evaluation opens its frame the same way: a
taxi-to-pickup distance matrix (preference tables, Hungarian cost
matrices, nearest-taxi queries) plus per-request trip distances (taxi
scores, revenue accounting).  The cache is the one place a dispatcher
gets those from (:meth:`~repro.dispatch.base.Dispatcher.distance_cache`):
the engine computes each matrix once per frame and every consumer reads
the same array.  A dispatcher called outside an engine opens a cache of
its own for that one call, so it computes exactly what it would inside.

Ownership and invalidation
--------------------------
The :class:`~repro.simulation.core.RunCore` of each run owns one cache
and the engine hands it to the dispatcher through the ``frame_cache``
attribute on :class:`~repro.dispatch.base.Dispatcher`.  At every frame
boundary the core calls :meth:`FrameDistanceCache.begin_frame`, which
drops all **taxi-dependent** matrices — taxis move between frames, so
anything keyed on taxi positions is stale the moment the frame ends.
Trip distances ``D(r^s, r^d)`` are constants of the immutable trace:
the run's cache is built with the whole trace and measures every trip
once, at run start, in one exact call.  From then on a trip read is a
table lookup, and no frame measures a trip.  A cache built without a
trace (a dispatcher outside an engine) measures the trips it is asked
for, in one call per read.  The trace's ids and trips are held here
once (:attr:`FrameDistanceCache.trace_ids`,
:attr:`~FrameDistanceCache.trace_trips`); the run core's request
columns are the same two arrays.

Frame operands
--------------
The warm NSTD solver reads a frame as arrays
(:class:`~repro.matching.warm_frame.FrameOperands`).
:meth:`FrameDistanceCache.frame_operands` is where a dispatcher gets
them: when the frame's lists are the ones the run core listed this
frame, the core's gather (:attr:`FrameDistanceCache.gather`) reads them
off the run's columns; otherwise they are built from the objects.

Exactness
---------
Every cached value is computed with ``exact=True`` batch kernels, which
fall back to scalar ``distance`` loops on oracles that do not honour
the exactness contract (see :mod:`repro.geometry.batch`).  The exact
kernels are elementwise, so a table entry measured with the whole trace
is bit-identical to the scalar oracle call it replaces, and threading
the cache through a dispatcher can never change its output — only how
fast it is produced.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.types import PassengerRequest, Taxi
from repro.geometry.batch import oracle_paired, oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.matching.warm_frame import FrameOperands, frame_operands

__all__ = ["FrameDistanceCache"]


def _measure_trips(oracle: DistanceOracle, requests: Sequence[PassengerRequest]) -> np.ndarray:
    """``D(r^s, r^d)`` of ``requests``, in order, in one exact paired call."""
    return oracle_paired(
        oracle,
        sources=[r.pickup for r in requests],
        targets=[r.dropoff for r in requests],
        exact=True,
    )


class FrameDistanceCache:
    """One frame's batched distance matrices, computed once, read many.

    ``trace`` is every request the cache will be asked about (an
    engine's whole trace): their trips are measured here, in one call,
    and every later :meth:`trip_km` read of them is a lookup.
    """

    def __init__(self, oracle: DistanceOracle, trace: Sequence[PassengerRequest] = ()):
        self.oracle = oracle
        # taxi-dependent: cleared every begin_frame()
        self._pickup: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
        #: The trace's request ids in trace order (read-only).
        self.trace_ids = np.fromiter(
            (r.request_id for r in trace), dtype=np.int64, count=len(trace)
        )
        self.trace_ids.setflags(write=False)
        # The permutation that sorts the ids, for trip_km's lookups.
        self._trip_order = np.argsort(self.trace_ids, kind="stable")
        #: The trace's trips ``D(r^s, r^d)`` in trace order (read-only).
        self.trace_trips = _measure_trips(oracle, trace) if len(trace) else np.empty(0)
        self.trace_trips.setflags(write=False)
        #: The owning run core's frame gather
        #: (:meth:`~repro.simulation.core.RunCore.gathered_operands`), held
        #: weakly so the cache does not keep its core alive; ``None`` on a
        #: cache no run core owns.
        self.gather: weakref.WeakMethod | None = None
        self.frames = 0
        self.hits = 0
        self.misses = 0

    def begin_frame(self) -> None:
        """Start a new frame: drop everything keyed on taxi positions."""
        self.frames += 1
        self._pickup.clear()

    def stats(self) -> dict[str, float | int]:
        """Traffic counters, for run telemetry."""
        return {
            "cache_frames": self.frames,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
        }

    # -- taxi-dependent ----------------------------------------------------

    def pickup_matrix(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> np.ndarray:
        """``D(t_i, r_j^s)`` as a read-only ``(len(taxis), len(requests))``
        matrix (taxi-major, the kernels' contiguous layout).

        Keyed by the id order of both sides, so callers that sort their
        inputs differently within one frame each get a correctly ordered
        matrix; identical orders share one array.
        """
        key = (
            tuple(t.taxi_id for t in taxis),
            tuple(r.request_id for r in requests),
        )
        cached = self._pickup.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        matrix = oracle_pairwise(
            self.oracle,
            sources=[t.location for t in taxis],
            targets=[r.pickup for r in requests],
            exact=True,
        )
        matrix.setflags(write=False)
        self._pickup[key] = matrix
        return matrix

    # -- request-keyed (the trace's trip table) ----------------------------

    def trip_km(self, requests: Sequence[PassengerRequest]) -> np.ndarray:
        """``D(r_j^s, r_j^d)`` per request, in the given order.

        A read the trip table answers whole is a hit; otherwise the
        requests it lacks are measured in one exact call (a miss).  An
        empty read counts as neither.  A read of the whole trace in
        trace order returns :attr:`trace_trips` itself.
        """
        if not requests:
            return np.empty(0, dtype=np.float64)
        ids = np.fromiter((r.request_id for r in requests), dtype=np.int64, count=len(requests))
        known = self.trace_ids
        if known.size:
            if ids.size == known.size and np.array_equal(ids, known):
                self.hits += 1
                return self.trace_trips
            order = self._trip_order
            rows = order[np.minimum(known.searchsorted(ids, sorter=order), known.size - 1)]
            km, found = self.trace_trips[rows], known[rows] == ids
            if found.all():
                self.hits += 1
                return km
        else:
            km, found = np.empty(len(ids)), np.zeros(len(ids), dtype=bool)
        self.misses += 1
        missing = np.flatnonzero(~found)
        km[missing] = _measure_trips(self.oracle, [requests[j] for j in missing.tolist()])
        return km

    # -- the warm solver's operands ------------------------------------------

    def frame_operands(
        self,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        *,
        alpha: float,
        alpha_by_taxi: Mapping[int, float] | None = None,
        trip_km: np.ndarray | None = None,
    ) -> FrameOperands:
        """The frame's :class:`~repro.matching.warm_frame.FrameOperands`,
        each taxi's α being ``alpha`` or its ``alpha_by_taxi`` entry.

        Gathered from the run's columns when ``taxis`` and ``requests``
        are the very lists the owning run core listed this frame; built
        from the objects by :func:`~repro.matching.warm_frame.frame_operands`
        otherwise, with ``trip_km`` (the frame's trips, when the caller
        already read them) or a :meth:`trip_km` read.
        """
        gather = self.gather() if self.gather is not None else None
        if gather is not None:
            gathered = gather(taxis, requests, alpha, alpha_by_taxi)
            if gathered is not None:
                return gathered
        if trip_km is None:
            trip_km = self.trip_km(requests)
        return frame_operands(
            taxis, requests, trip_km=trip_km, alpha=alpha, alpha_by_taxi=alpha_by_taxi
        )
