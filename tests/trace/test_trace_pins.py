"""Pinned synthetic traces.

Every figure pin, golden schedule and benchmark quality metric rests on
the generator's draws, so each field of a small New York day, a small
Boston day (both through ``requests_for_day``), one evening rush-hour
window (``requests_for_window``) and their fleets is hashed here, with
floats as ``float.hex``.  A change to the order or kind of any draw
(times, pickups, drop-offs, party sizes, taxi positions) moves a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.trace import SyntheticTraceGenerator, boston_profile, nyc_profile


def trace_digest(requests, fleet):
    digest = hashlib.sha256()
    for r in requests:
        digest.update(repr((
            r.request_id, r.pickup.x.hex(), r.pickup.y.hex(), r.dropoff.x.hex(),
            r.dropoff.y.hex(), r.request_time_s.hex(), r.passengers,
        )).encode())
    for t in fleet:
        digest.update(repr((t.taxi_id, t.location.x.hex(), t.location.y.hex(), t.seats)).encode())
    return digest.hexdigest()


def nyc_day():
    generator = SyntheticTraceGenerator(nyc_profile().scaled(0.01), seed=2017)
    return generator.requests_for_day(), generator.fleet()


def boston_day():
    generator = SyntheticTraceGenerator(boston_profile().scaled(0.02), seed=2017)
    return generator.requests_for_day(), generator.fleet()


def nyc_rush_hour():
    generator = SyntheticTraceGenerator(nyc_profile().scaled(0.05), seed=7)
    return generator.requests_for_window(17 * 3600.0, 18 * 3600.0, 150), generator.fleet(70)


@pytest.mark.parametrize(
    ("build", "pin"),
    [
        (nyc_day, "063263c28935ac59297f9554d81bac4aacca4b85940de704fc4ead5c800dc182"),
        (boston_day, "3101993c96a1102ab230b21a3783636a5b08a87dd8bee3dbd610bfc8d756abce"),
        (nyc_rush_hour, "a39c99afb8b79ae317e8771902dcb73c45ef8f84964315b0c6dcfe8e2b35ed1b"),
    ],
    ids=["nyc-day", "boston-day", "nyc-rush-hour"],
)
def test_trace_matches_its_pin(build, pin):
    requests, fleet = build()
    assert {r.passengers for r in requests} == {1, 2, 3}
    assert trace_digest(requests, fleet) == pin
