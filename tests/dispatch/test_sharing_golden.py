"""Golden schedule digests for the sharing dispatchers.

Each case runs one sharing-rush hour (NYC at scale 0.05, twice the
paper's fleet, 17–18 h) through the batch engine under STD-P, STD-T or
ILP, on the Euclidean oracle and on the asymmetric one-way ring, and
CRCs every dispatch in commit order: ``(frame_time_s, taxi_id,
request_ids, stops)``.  The pinned values hold any rewrite of the
sharing stack (group enumeration, shared-route search, set packing,
sharing preference table, stable matching) to bit-identical schedules.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import pytest

from repro.experiments import (
    ExperimentScale,
    build_workload,
    city_simulation_config,
    make_dispatcher,
)
from repro.geometry import EuclideanDistance
from repro.simulation import Simulator
from repro.trace.profiles import nyc_profile
from tests.support import oneway_ring

ORACLES = {"euclidean": EuclideanDistance, "oneway-ring": oneway_ring}

#: (oracle, trace seed, dispatcher) -> (assignments, CRC32 of the schedule).
GOLDEN = {
    ("euclidean", 7, "STD-P"): (110, 3752188149),
    ("euclidean", 7, "STD-T"): (110, 3752188149),
    ("euclidean", 7, "ILP"): (123, 4054928841),
    ("euclidean", 8, "STD-P"): (112, 886396592),
    ("euclidean", 8, "STD-T"): (112, 886396592),
    ("euclidean", 8, "ILP"): (121, 3291703926),
    ("oneway-ring", 7, "STD-P"): (107, 2356666373),
    ("oneway-ring", 7, "STD-T"): (107, 2356666373),
    ("oneway-ring", 7, "ILP"): (124, 3171460280),
    ("oneway-ring", 8, "STD-P"): (114, 831124569),
    ("oneway-ring", 8, "STD-T"): (114, 831124569),
    ("oneway-ring", 8, "ILP"): (120, 1937283042),
}


def rush_hour(seed: int):
    profile = nyc_profile()
    profile = replace(profile, n_taxis=round(profile.n_taxis * 2.0))
    sim_config = city_simulation_config(profile.scaled(0.05))
    fleet, requests = build_workload(
        profile, ExperimentScale(factor=0.05, seed=seed, hours=(17.0, 18.0))
    )
    return sim_config, fleet, requests


def schedule_digest(oracle_name: str, seed: int, algorithm: str) -> tuple[int, int]:
    sim_config, fleet, requests = rush_hour(seed)
    oracle = ORACLES[oracle_name]()
    dispatcher = make_dispatcher(algorithm, oracle, sim_config.dispatch)
    stops = {}
    honest = dispatcher.dispatch

    def dispatch(taxis, batch):
        schedule = honest(taxis, batch)
        for assignment in schedule.assignments:
            stops[assignment.request_ids] = assignment.stops
        return schedule

    dispatcher.dispatch = dispatch
    result = Simulator(dispatcher, oracle, sim_config).run(fleet, requests)
    crc = 0
    for record in result.assignments:
        row = (record.frame_time_s, record.taxi_id, record.request_ids, stops[record.request_ids])
        crc = zlib.crc32(repr(row).encode(), crc)
    return len(result.assignments), crc


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_schedule_matches_golden_digest(case):
    assert schedule_digest(*case) == GOLDEN[case]
