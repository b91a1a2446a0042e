"""Shared fixtures for the test suite.

Reference implementations that tests compare against live in
:mod:`tests.oracles`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np

from repro.core.types import PassengerRequest, Taxi
from repro.geometry import Point
from repro.geometry.batch import Points, as_point_array
from repro.matching import PreferenceTable
from repro.network import RoadNetwork
from repro.simulation.core import RequestColumns

__all__ = ["random_table", "oneway_ring", "epoch_columns", "CountingOracle", "TAXI_ID_BASE"]

TAXI_ID_BASE = 100


def random_table(
    rng: random.Random,
    n_proposers: int,
    n_reviewers: int,
    acceptance: float = 0.7,
) -> PreferenceTable:
    """A random preference market with random mutual acceptability.

    Proposer ids are 0..n−1; reviewer ids start at ``TAXI_ID_BASE`` so
    the two sides can never be confused in assertions.
    """
    proposers = list(range(n_proposers))
    reviewers = list(range(TAXI_ID_BASE, TAXI_ID_BASE + n_reviewers))
    pairs = [(p, r) for p in proposers for r in reviewers if rng.random() < acceptance]
    proposer_prefs = {}
    for p in proposers:
        acceptable = [r for (pp, r) in pairs if pp == p]
        rng.shuffle(acceptable)
        proposer_prefs[p] = tuple(acceptable)
    reviewer_prefs = {}
    for r in reviewers:
        acceptable = [p for (p, rr) in pairs if rr == r]
        rng.shuffle(acceptable)
        reviewer_prefs[r] = tuple(acceptable)
    return PreferenceTable(proposer_prefs=proposer_prefs, reviewer_prefs=reviewer_prefs)


def oneway_ring() -> RoadNetwork:
    """A 4-node one-way ring: D(u, v) and D(v, u) always differ."""
    network = RoadNetwork()
    corners = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 10.0), Point(0.0, 10.0)]
    for node_id, point in enumerate(corners):
        network.add_node(node_id, point)
    for u in range(4):
        network.add_edge(u, (u + 1) % 4, 10.0, oneway=True)
    return network


def epoch_columns(
    taxis: Sequence[Taxi], requests: Sequence[PassengerRequest], trip_km: np.ndarray
) -> dict[str, object]:
    """The operands :meth:`~repro.streaming.matcher.ZoneMatcher.match_epoch`
    takes beside the two lists, as keyword arguments: ``requests`` as the
    whole run's request columns (with trips ``trip_km``), every row of
    them, and the taxis' locations."""
    return {
        "rows": np.arange(len(requests), dtype=np.int64),
        "columns": RequestColumns(requests, trip_km),
        "taxi_xy": as_point_array([t.location for t in taxis], check_finite=False),
    }


class CountingOracle:
    """A distance-oracle proxy that counts the batch calls made through it.

    It keeps its base's exactness flag, so the batch helpers route
    through it exactly as they route through the base.  Each ``paired``
    call appends its targets, as an ``(n, 2)`` array, to ``events``; a
    test may append markers of its own there to order calls against
    other events.
    """

    def __init__(self, base):
        self.base = base
        self.batch_exact = getattr(base, "batch_exact", False)
        self.pairwise_calls = 0
        self.paired_calls = 0
        self.events: list[object] = []

    def distance(self, a: Point, b: Point) -> float:
        return self.base.distance(a, b)

    def pairwise(self, sources: Points, targets: Points) -> np.ndarray:
        self.pairwise_calls += 1
        return self.base.pairwise(sources, targets)

    def paired(self, sources: Points, targets: Points) -> np.ndarray:
        self.paired_calls += 1
        self.events.append(as_point_array(targets, check_finite=False))
        return self.base.paired(sources, targets)
