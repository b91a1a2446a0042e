"""Shared fixtures for the test suite.

Reference implementations that tests compare against live in
:mod:`tests.oracles`.
"""

from __future__ import annotations

import random

from repro.geometry import Point
from repro.matching import PreferenceTable
from repro.network import RoadNetwork

__all__ = ["random_table", "oneway_ring", "TAXI_ID_BASE"]

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
