"""Frames with nothing queued cost only an idle count.

A frame whose queue is empty dispatches nothing, so both engines read
only how many taxis are idle (``RunCore.idle_count``) instead of
gathering the idle snapshots, and skip the expiry scan.  What such a
frame records must not change: the trace below leaves the engines idle
for hours between three bursts of requests, and its frame series,
journal digests and frame-cache counters are pinned to the values the
engines produced when every frame gathered its idle list.  The journal
pins moved once, when the digest dropped its rung, mode and audit
fields: the new values are the CRCs of the old digests' remaining
fields.  The cache counters moved when trips became a run-start table:
trip reads that measured (or bypassed the cache) became hits, and the
eviction and trip-entry counters went with the memo they described.
They moved again when the run core took its trips as a row-order
column: one read at run start replaced every executed frame's read.
They moved a third time when warm NSTD frames took their solver's
operands as gathers over the run's columns: a warm frame reads no trip.
"""

from __future__ import annotations

import zlib
from dataclasses import astuple, replace

import pytest

from repro.dispatch.nonsharing import NSTDDispatcher
from repro.experiments import (
    ExperimentScale,
    build_workload,
    city_simulation_config,
    make_dispatcher,
)
from repro.geometry import EuclideanDistance
from repro.resilience import DurabilityConfig, DurabilityManager, read_journal
from repro.simulation import Simulator
from repro.streaming import StreamingEngine
from repro.trace.profiles import nyc_profile

#: Frame-cache counters of every pinned run.  Every trip read is a hit
#: on the run-start trip table: the run core's one read at run start,
#: plus NSTD's one per cold solve; warm solves and execution gather
#: trips from the core's column.  The one miss is the warm run's single
#: cold frame's pickup matrix.
CACHE_NSTD = {"cache_frames": 476, "cache_hits": 2, "cache_misses": 1}
#: STD reads no trip distances from the cache: its pickup gaps are
#: measured by the group enumeration itself.
CACHE_STD = CACHE_NSTD | {"cache_hits": 1, "cache_misses": 0}
#: The streaming matcher reads trips off the core's column too.
CACHE_STREAM = CACHE_NSTD | {"cache_hits": 1, "cache_misses": 0}


@pytest.fixture(scope="module")
def gap_workload():
    """One NYC evening hour at t = 0, its second and third 20-minute
    thirds pushed 3 and 6 hours later: 30 requests, three bursts, and
    hours of frames with an empty queue between them."""
    profile = nyc_profile()
    scale = ExperimentScale(factor=0.01, seed=5, hours=(17.0, 18.0))
    fleet, requests = build_workload(profile, scale)
    start_s = 17.0 * 3600.0
    shifted = []
    for request in requests:
        t = request.request_time_s - start_s
        shifted.append(replace(request, request_time_s=t + (t // 1200.0) * 3.0 * 3600.0))
    sim_config = replace(
        city_simulation_config(profile.scaled(scale.factor)), horizon_s=7.0 * 3600.0
    )
    return sim_config, fleet, shifted


def crc(value) -> str:
    return f"{zlib.crc32(repr(value).encode()):08x}"


def frame_series(result):
    return [replace(f, dispatch_ms=0.0) for f in result.frame_stats]


def cache_counters(result):
    return {k: v for k, v in result.dispatch_telemetry.items() if k.startswith("cache_")}


@pytest.mark.parametrize(
    ("algorithm", "frames_crc", "journal_crc", "cache"),
    [
        ("NSTD-P", "1527c826", "37486b9a", CACHE_NSTD),
        ("STD-P", "a7c64cc6", "35eefff4", CACHE_STD),
    ],
)
def test_batch_engine_records_empty_frames_as_before(
    gap_workload, tmp_path, algorithm, frames_crc, journal_crc, cache
):
    sim_config, fleet, requests = gap_workload
    oracle = EuclideanDistance()
    if algorithm == "NSTD-P":
        dispatcher = NSTDDispatcher(oracle, sim_config.dispatch, warm_start=True)
    else:
        dispatcher = make_dispatcher(algorithm, oracle, sim_config.dispatch)
    manager = DurabilityManager(DurabilityConfig(tmp_path, checkpoint_every_frames=16))
    result = Simulator(dispatcher, oracle, sim_config, durability=manager).run(fleet, requests)
    assert sorted({int(r.request_time_s // 3600.0) for r in requests}) == [0, 3, 6]
    assert result.frames_run == 476
    assert sum(1 for f in result.frame_stats if f.queue_length == 0) > 250
    assert crc(frame_series(result)) == frames_crc
    assert crc([astuple(d) for d in read_journal(manager.journal_path).frames]) == journal_crc
    assert cache_counters(result) == cache


def test_streaming_engine_records_empty_frames_as_before(gap_workload):
    sim_config, fleet, requests = gap_workload
    result = StreamingEngine(EuclideanDistance(), sim_config).run(fleet, requests)
    assert crc(frame_series(result)) == "1527c826"
    assert cache_counters(result) == CACHE_STREAM
