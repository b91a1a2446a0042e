"""Selecting among stable matchings: passenger-optimal and taxi-optimal.

Property 2 of the paper: Algorithm 1 yields the *passenger-optimal*
(and simultaneously taxi-pessimal) stable matching.  Its mirror, the
*taxi-optimal* stable matching (NSTD-T), is deferred acceptance on the
role-reversed table, which is proposer-optimal for taxis.  With dummy
thresholds the matched sets coincide across all stable matchings (the
rural-hospitals invariance behind Theorem 2), so this is exactly the
matching Algorithm 2 would select for taxis by enumerating every stable
matching; the test suite checks the two against each other.

Section IV-D notes that the company "can pick a stable matching from all
possible ones, such that the most money is made": the company takes a
fixed percentage of each fare, so revenue is the total trip distance of
served requests (:func:`company_revenue`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.types import PassengerRequest
from repro.geometry.distance import DistanceOracle
from repro.matching.arrays import PreferenceArrays
from repro.matching.deferred_acceptance import deferred_acceptance
from repro.matching.preferences import PreferenceTable
from repro.matching.result import Matching

__all__ = [
    "passenger_optimal",
    "taxi_optimal",
    "company_revenue",
    "rank_profile",
]


def passenger_optimal(table: PreferenceTable | PreferenceArrays) -> Matching:
    """NSTD-P: the passenger-optimal stable matching (Algorithm 1).

    Accepts either preference representation; arrays run on the
    array-backed engine.
    """
    return deferred_acceptance(table)


def taxi_optimal(table: PreferenceTable | PreferenceArrays) -> Matching:
    """NSTD-T fast path: deferred acceptance with taxis proposing.

    Returns a matching in the original orientation (request → taxi).
    For :class:`~repro.matching.arrays.PreferenceArrays` the role swap
    is a zero-copy field relabeling, so the taxi-proposing run costs no
    more than the passenger-proposing one.
    """
    reversed_matching = deferred_acceptance(table.reversed())
    return Matching({proposer: reviewer for reviewer, proposer in reversed_matching.pairs})


def company_revenue(
    matching: Matching,
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
) -> float:
    """Total fare-proportional revenue: sum of served trip distances (km)."""
    by_id = {r.request_id: r for r in requests}
    return sum(
        by_id[proposer_id].trip_distance(oracle)
        for proposer_id, _ in matching.pairs
        if proposer_id in by_id
    )


def rank_profile(table: PreferenceTable, matching: Matching) -> tuple[float, float]:
    """Mean proposer-side and reviewer-side ranks of the matched pairs.

    Useful to demonstrate the optimal/pessimal duality: the passenger-
    optimal matching minimizes the first component over the lattice and
    maximizes the second, and vice versa for the taxi-optimal one.
    """
    if matching.size == 0:
        return (0.0, 0.0)
    proposer_total = 0
    reviewer_total = 0
    for proposer_id, reviewer_id in matching.pairs:
        p_rank = table.proposer_rank(proposer_id, reviewer_id)
        r_rank = table.reviewer_rank(reviewer_id, proposer_id)
        assert p_rank is not None and r_rank is not None
        proposer_total += p_rank
        reviewer_total += r_rank
    return (proposer_total / matching.size, reviewer_total / matching.size)
