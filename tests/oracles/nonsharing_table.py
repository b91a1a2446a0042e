"""The scalar double loop behind the non-sharing preference table.

The semantic specification of
:func:`repro.matching.preferences.build_nonsharing_table`: the dense
builder reproduces it identically (same preference orders, same
scores, same deterministic id tie-breaks), which the kernel-equivalence
property suite asserts pair for pair.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.core.config import DispatchConfig
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.distance import DistanceOracle
from repro.matching.preferences import PreferenceTable, _checked_alphas

__all__ = ["build_nonsharing_table_reference"]


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
    config = config if config is not None else DispatchConfig()
    alphas = _checked_alphas(taxis, requests, config, alpha_by_taxi)
    return _scalar_table(taxis, requests, oracle, config, alphas)


def _scalar_table(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    alphas: Mapping[int, float],
) -> PreferenceTable:
    proposer_scores: dict[tuple[int, int], float] = {}
    reviewer_scores: dict[tuple[int, int], float] = {}
    acceptable_by_request: dict[int, list[tuple[float, int]]] = {r.request_id: [] for r in requests}
    acceptable_by_taxi: dict[int, list[tuple[float, int]]] = {t.taxi_id: [] for t in taxis}

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
            proposer_scores[(request.request_id, taxi.taxi_id)] = pickup_km
            reviewer_scores[(request.request_id, taxi.taxi_id)] = driver
            acceptable_by_request[request.request_id].append((pickup_km, taxi.taxi_id))
            acceptable_by_taxi[taxi.taxi_id].append((driver, request.request_id))

    proposer_prefs = {
        rid: tuple(t for _, t in sorted(pairs)) for rid, pairs in acceptable_by_request.items()
    }
    reviewer_prefs = {
        tid: tuple(r for _, r in sorted(pairs)) for tid, pairs in acceptable_by_taxi.items()
    }
    return PreferenceTable(
        proposer_prefs=proposer_prefs,
        reviewer_prefs=reviewer_prefs,
        proposer_scores=proposer_scores,
        reviewer_scores=reviewer_scores,
        validate=False,
    )
