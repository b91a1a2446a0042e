"""Pinned outputs of the four NSTD solve modes and the preference builder.

Each case is one seeded frame with a heterogeneous ``alpha_by_taxi``
map (so the stable lattice has more than one point), on the Euclidean
oracle or on the asymmetric one-way ring.  The CRCs cover every
assignment NSTD-P, NSTD-T, exact NSTD-T and NSTD-M ship, and both
sides' preference orders of :func:`build_nonsharing_table` in dict
iteration order.  Any rewrite of the preference build or of the solve
paths must keep them bit for bit.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance, Point
from repro.matching import build_nonsharing_table
from tests.support import oneway_ring

ORACLES = {"euclidean": EuclideanDistance, "oneway-ring": oneway_ring}
CONFIG = DispatchConfig(passenger_threshold_km=9.0, taxi_threshold_km=9.0)
MODES = {
    "NSTD-P": {"optimize_for": "passenger"},
    "NSTD-T": {"optimize_for": "taxi"},
    "NSTD-T-exact": {"optimize_for": "taxi", "exact": True},
    "NSTD-M": {"optimize_for": "median"},
}

#: (oracle, seed) -> {mode or "table": CRC32 as hex}.  Seeds 6, 14 and 28
#: have two stable matchings, so NSTD-P and NSTD-T differ there; on a
#: two-point lattice the (lower) median is the passenger-optimal one.
PINS = {
    ("euclidean", 1): {
        "NSTD-P": "d225a2ee", "NSTD-T": "d225a2ee", "NSTD-T-exact": "d225a2ee",
        "NSTD-M": "d225a2ee", "table": "a2f646af",
    },
    ("euclidean", 6): {
        "NSTD-P": "e64e405c", "NSTD-T": "1a94b6a1", "NSTD-T-exact": "1a94b6a1",
        "NSTD-M": "e64e405c", "table": "e5a97c41",
    },
    ("euclidean", 14): {
        "NSTD-P": "aff76025", "NSTD-T": "914a1b63", "NSTD-T-exact": "914a1b63",
        "NSTD-M": "aff76025", "table": "2d82bc68",
    },
    ("oneway-ring", 1): {
        "NSTD-P": "64d0c8e1", "NSTD-T": "64d0c8e1", "NSTD-T-exact": "64d0c8e1",
        "NSTD-M": "64d0c8e1", "table": "e5c40776",
    },
    ("oneway-ring", 28): {
        "NSTD-P": "88c83b50", "NSTD-T": "7b24ad80", "NSTD-T-exact": "7b24ad80",
        "NSTD-M": "88c83b50", "table": "2cd95cdb",
    },
}


def frame(seed: int, n: int = 24):
    """``n`` taxis and requests in a 10 km square, mixed seats and
    parties, with a per-taxi fare coefficient in [0, 4)."""
    rng = np.random.default_rng(seed)
    taxis = [
        Taxi(100 + i, Point(*rng.uniform(0.0, 10.0, 2)), seats=int(rng.integers(2, 5)))
        for i in range(n)
    ]
    requests = [
        PassengerRequest(
            j,
            Point(*rng.uniform(0.0, 10.0, 2)),
            Point(*rng.uniform(0.0, 10.0, 2)),
            passengers=int(rng.integers(1, 3)),
        )
        for j in range(n)
    ]
    alphas = {t.taxi_id: float(rng.uniform(0.0, 4.0)) for t in taxis}
    return taxis, requests, alphas


def crc(value: object) -> str:
    return f"{zlib.crc32(repr(value).encode()):08x}"


def frame_digests(oracle_name: str, seed: int) -> dict[str, str]:
    oracle = ORACLES[oracle_name]()
    taxis, requests, alphas = frame(seed)
    digests = {}
    for mode, kwargs in MODES.items():
        dispatcher = NSTDDispatcher(oracle, CONFIG, alpha_by_taxi=alphas, **kwargs)
        schedule = dispatcher.dispatch(taxis, requests)
        digests[mode] = crc(
            [(a.taxi_id, a.request_ids, a.stops) for a in schedule.assignments]
        )
    table = build_nonsharing_table(taxis, requests, oracle, CONFIG, alpha_by_taxi=alphas)
    digests["table"] = crc(
        (list(table.proposer_prefs.items()), list(table.reviewer_prefs.items()))
    )
    return digests


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: "-".join(map(str, c)))
def test_nstd_outputs_match_pins(case):
    assert frame_digests(*case) == PINS[case]
