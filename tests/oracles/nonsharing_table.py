"""The scalar double loop behind the non-sharing preference table.

The semantic specification of
:func:`repro.matching.preferences.build_nonsharing_table`: the dense
builder reproduces it identically (same preference orders, same
scores, same deterministic id tie-breaks), which the kernel-equivalence
property suite asserts pair for pair.  The scores come separately
(:func:`nonsharing_scores_reference`), since a table holds only orders.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.core.config import DispatchConfig
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.distance import DistanceOracle
from repro.matching.preferences import PreferenceTable, _checked_alphas

__all__ = [
    "build_nonsharing_table_reference",
    "nonsharing_scores_reference",
    "table_from_scores",
]

#: ``(proposer id, reviewer id) -> (proposer score, reviewer score)`` of
#: every mutually acceptable pair (smaller is better on both sides).
PairScores = dict[tuple[int, int], tuple[float, float]]


def build_nonsharing_table_reference(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    alpha_by_taxi: Mapping[int, float] | None = None,
) -> PreferenceTable:
    """The scalar double-loop reference implementation.

    Kept as the semantic specification of :func:`build_nonsharing_table`:
    the equivalence property tests and the kernel benchmark both compare
    the dense builder against this, pair for pair and bit for bit.
    """
    scores = nonsharing_scores_reference(
        taxis, requests, oracle, config, alpha_by_taxi=alpha_by_taxi
    )
    return table_from_scores(
        [r.request_id for r in requests], [t.taxi_id for t in taxis], scores
    )


def nonsharing_scores_reference(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    alpha_by_taxi: Mapping[int, float] | None = None,
) -> PairScores:
    """Both scores of every acceptable ``(request id, taxi id)`` pair,
    by the scalar double loop: the pickup distance and the driver score
    the reference table ranks by."""
    config = config if config is not None else DispatchConfig()
    alphas = _checked_alphas(taxis, requests, config, alpha_by_taxi)
    scores: PairScores = {}
    for request in requests:
        trip = request.trip_distance(oracle)
        for taxi in taxis:
            if not taxi.can_carry(request):
                continue
            pickup_km = oracle.distance(taxi.location, request.pickup)
            if not math.isfinite(pickup_km) or pickup_km > config.passenger_threshold_km:
                continue
            driver = pickup_km - alphas[taxi.taxi_id] * trip
            if not math.isfinite(driver) or driver > config.taxi_threshold_km:
                continue
            scores[(request.request_id, taxi.taxi_id)] = (pickup_km, driver)
    return scores


def table_from_scores(
    proposer_ids: Sequence[int], reviewer_ids: Sequence[int], scores: PairScores
) -> PreferenceTable:
    """The table ranking each side's acceptable partners by its own score,
    ties broken by partner id (the per-list ``sorted()`` of the
    references)."""
    by_proposer: dict[int, list[tuple[float, int]]] = {p: [] for p in proposer_ids}
    by_reviewer: dict[int, list[tuple[float, int]]] = {r: [] for r in reviewer_ids}
    for (p, r), (proposer_score, reviewer_score) in scores.items():
        by_proposer[p].append((proposer_score, r))
        by_reviewer[r].append((reviewer_score, p))
    return PreferenceTable(
        proposer_prefs={p: tuple(r for _, r in sorted(v)) for p, v in by_proposer.items()},
        reviewer_prefs={r: tuple(p for _, p in sorted(v)) for r, v in by_reviewer.items()},
        validate=False,
    )
