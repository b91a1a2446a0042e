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
The :class:`~repro.simulation.engine.Simulator` owns one cache per run
and hands it to the dispatcher through the ``frame_cache`` attribute on
:class:`~repro.dispatch.base.Dispatcher`.  At every frame boundary the
engine calls :meth:`FrameDistanceCache.begin_frame`, which drops all
**taxi-dependent** matrices — taxis move between frames, so anything
keyed on taxi positions is stale the moment the frame ends.  Trip
distances are **request-keyed**: immutable facts about frozen requests
that persist while their request is queued, so a request waiting across
frames is measured once.  The engines retire each request's trip as it
resolves (:meth:`FrameDistanceCache.retire_requests`), which bounds the
memo by the live queue.

Exactness
---------
Every cached value is computed with ``exact=True`` batch kernels, which
fall back to scalar ``distance`` loops on oracles that do not honour
the exactness contract (see :mod:`repro.geometry.batch`).  A cache hit
is therefore bit-identical to the scalar oracle call it replaces, so
threading the cache through a dispatcher can never change its output —
only how fast it is produced.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import ClassVar

import numpy as np

from repro.core.types import PassengerRequest, Taxi
from repro.geometry.batch import oracle_paired, oracle_pairwise
from repro.geometry.distance import DistanceOracle

__all__ = ["FrameDistanceCache"]


class FrameDistanceCache:
    """One frame's batched distance matrices, computed once, read many."""

    #: Attributes the snapshot leaves out (:meth:`state_payload` holds the
    #: trip memo), each with the reason a resumed run does not need it.
    DURABILITY_EXCLUSIONS: ClassVar[dict[str, str]] = {
        "_pickup": "taxi-keyed matrices, dropped at every frame boundary, where snapshots are taken",
        "frames": "telemetry counter; a resumed cache counts from the resume",
        "hits": "telemetry counter; a resumed cache counts from the resume",
        "misses": "telemetry counter; a resumed cache counts from the resume",
        "evictions": "telemetry counter; a resumed cache counts from the resume",
    }

    def __init__(self, oracle: DistanceOracle):
        self.oracle = oracle
        # taxi-dependent: cleared every begin_frame()
        self._pickup: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
        # request-keyed: persists while its request is live (see
        # retire_requests)
        self._trip_km: dict[int, float] = {}
        self.frames = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def begin_frame(self) -> None:
        """Start a new frame: drop everything keyed on taxi positions."""
        self.frames += 1
        self._pickup.clear()

    def retire_requests(self, request_ids: Iterable[int]) -> None:
        """Evict the trip memos of requests that left the system.

        Served and expired requests can never reappear in a frame, so
        their trip distances are dead weight; the engine calls this as
        requests resolve, which bounds the memo by the live queue
        instead of letting it grow with the whole trace.
        """
        trips = self._trip_km
        # Membership tests run against the retired ids (a frame's worth),
        # never by scanning the memo itself (queue-sized or larger).
        dead_trips = [rid for rid in request_ids if rid in trips]
        for rid in dead_trips:
            del trips[rid]
        self.evictions += len(dead_trips)

    def stats(self) -> dict[str, float | int]:
        """Occupancy and traffic counters, for run telemetry."""
        return {
            "cache_frames": self.frames,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_trip_entries": len(self._trip_km),
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

    # -- request-keyed (persist across frames) -----------------------------

    def trip_km(self, requests: Sequence[PassengerRequest]) -> np.ndarray:
        """``D(r_j^s, r_j^d)`` per request, in the given order.

        Trip distances are memoized by request id for the life of the
        cache, so a request that waits in the queue for many frames is
        measured exactly once.
        """
        trips = self._trip_km
        missing = [r for r in requests if r.request_id not in trips]
        if missing:
            self.misses += 1
            distances = oracle_paired(
                self.oracle,
                sources=[r.pickup for r in missing],
                targets=[r.dropoff for r in missing],
                exact=True,
            )
            for request, km in zip(missing, distances.tolist()):
                trips[request.request_id] = km
        else:
            self.hits += 1
        return np.array([trips[r.request_id] for r in requests], dtype=np.float64)

    def prime_trip_km(
        self, request_ids: Sequence[int] | np.ndarray, km: Sequence[float] | np.ndarray
    ) -> None:
        """Seed the trip memo with values computed elsewhere.

        The warm frame solver computes new requests' trip distances with
        the same exact kernels this cache uses; priming them here keeps
        the engine's per-assignment :meth:`trip_distance` reads hitting
        the memo on warm frames exactly as they do on cold ones.
        """
        rid_list = request_ids.tolist() if isinstance(request_ids, np.ndarray) else [
            int(rid) for rid in request_ids
        ]
        km_list = km.tolist() if isinstance(km, np.ndarray) else [float(value) for value in km]
        trips = self._trip_km
        for rid, value in zip(rid_list, km_list):
            trips[rid] = value

    def state_payload(self) -> list[list[int | float]]:
        """The trip memo as ``[request_id, km]`` rows, for a snapshot.

        A resumed run must make exactly the oracle calls the interrupted
        one would have made: under a fault injector every call draws
        from the fault schedule, so measuring a queued request's trip
        a second time would shift every later fault.
        """
        return [[rid, km] for rid, km in self._trip_km.items()]

    def restore_state(self, payload: Sequence[Sequence[int | float]]) -> None:
        """Adopt a :meth:`state_payload` trip memo."""
        self._trip_km = {int(rid): float(km) for rid, km in payload}

    def trip_distance(self, request: PassengerRequest) -> float:
        """Single-request trip distance through the same memo."""
        km = self._trip_km.get(request.request_id)
        if km is None:
            km = float(
                oracle_paired(
                    self.oracle,
                    sources=[request.pickup],
                    targets=[request.dropoff],
                    exact=True,
                )[0]
            )
            self._trip_km[request.request_id] = km
            self.misses += 1
        else:
            self.hits += 1
        return km
