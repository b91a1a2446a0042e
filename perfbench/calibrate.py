"""A fixed reference load that measures how fast the host runs right now.

Other tenants of a shared host change its speed for minutes at a time:
on the 2-vCPU host this benchmark was built on, the same repetition of
the same seed took 5.5–6 s for three minutes and then 3.5–4 s.  No
statistic inside a 30-second run removes that, and the spread of ten
runs made a few minutes apart measures the host instead of the program.

``probe_s()`` times a fixed piece of work that does what the dispatch
engines do — builds small objects, keys dicts, pops a heap, sorts and
computes small pairwise-distance matrices with NumPy — but calls no
``repro`` code, so no change to the program changes it.  Measured
workers run it after set-up and after every repetition.  The
orchestrator scales each repetition's times by ``REFERENCE_PROBE_S``
over the mean of the probes just before and just after it, and the
set-up time by ``REFERENCE_PROBE_S`` over the median of the run's
probes, i.e. to a host on which the probe takes ``REFERENCE_PROBE_S``.  Over ten
cityday-stream runs made while the host's speed changed, a probe of
half the present length cut the spread of ``requests_per_s`` (distance
between quartiles over the median) from 32% to 12%.

The cyclic garbage collector is off while the probe runs, so its time
does not depend on how many objects the program left alive.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

#: Probe time that scaled figures refer to: a typical ``probe_s()`` on
#: the host the benchmark was built on (Intel Xeon, 2.0 GHz, 2 vCPUs).
REFERENCE_PROBE_S = 1.2

#: Units of reference work per probe.  A probe of half this length left
#: its own noise in the scaled times.
PROBE_UNITS = 20


class _Rider:
    __slots__ = ("rid", "x", "y", "t", "prefs")

    def __init__(self, rid: int, x: float, y: float, t: float) -> None:
        self.rid = rid
        self.x = x
        self.y = y
        self.t = t
        self.prefs: list[int] = []


def _unit() -> int:
    """One unit of reference work; returns a checksum."""
    rnd = random.Random(7)
    riders = [_Rider(i, rnd.random(), rnd.random(), rnd.random() * 3600.0) for i in range(4000)]
    taxis = np.random.default_rng(7).random((120, 2))
    cells: dict[tuple[int, int], list[_Rider]] = {}
    for r in riders:
        cells.setdefault((int(r.x * 16), int(r.y * 16)), []).append(r)
    checksum = len(cells)
    for k in range(0, len(riders), 200):
        batch = riders[k:k + 200]
        points = np.array([(r.x, r.y) for r in batch])
        dist = np.sqrt(((points[:, None, :] - taxis[None, :, :]) ** 2).sum(-1))
        for r, row in zip(batch, np.argsort(dist, axis=1)[:, :8].tolist()):
            r.prefs = row
        # Deferred acceptance: riders propose to taxis in preference order.
        held: dict[int, int] = {}
        heap = [(0, i) for i in range(len(batch))]
        while heap:
            n, i = heapq.heappop(heap)
            if n >= 8:
                continue
            j = batch[i].prefs[n]
            rival = held.get(j)
            if rival is None:
                held[j] = i
            elif dist[i, j] < dist[rival, j]:
                held[j] = i
                heapq.heappush(heap, (batch[rival].prefs.index(j) + 1, rival))
            else:
                heapq.heappush(heap, (n + 1, i))
        checksum += len(held)
    riders.sort(key=lambda r: (r.t, r.rid))
    return checksum + riders[0].rid


def probe_s() -> float:
    """Wall time of ``PROBE_UNITS`` units of the reference load."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(PROBE_UNITS):
            _unit()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
