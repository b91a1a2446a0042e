"""MCBM baseline: minimum-cost bipartite matching (Hanna et al. [3], ii).

Costs are pickup distances ``D(t_i, r_j^s)``; the Hungarian algorithm
matches ``min(|R|, |T|)`` pairs minimizing the total.  Pairs beyond the
passenger wait threshold or without enough seats are forbidden.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.types import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher, single_assignment
from repro.geometry.batch import oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.matching.bipartite import min_cost_matching

__all__ = ["MinCostDispatcher", "build_cost_matrix"]


def build_cost_matrix(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    threshold_km: float = math.inf,
    *,
    pickup_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """``cost[j][i] = D(t_i, r_j^s)``; ``inf`` marks forbidden pairs.

    Built on the batched distance kernels (one vectorized pickup-distance
    matrix plus seat/threshold masks); oracles without an exact batch
    kernel fall back to scalar ``distance`` calls, so entries are always
    bit-identical to the scalar double loop.  ``pickup_matrix``
    optionally supplies that taxi-major ``(len(taxis), len(requests))``
    distance matrix precomputed (the frame cache's layout) instead of
    recomputing it here.
    """
    if not taxis or not requests:
        return np.full((len(requests), len(taxis)), math.inf)
    # Sources are taxi locations: D(t_i, r_j^s) differs from D(r_j^s, t_i)
    # on asymmetric oracles such as a road network with oneway edges.  The
    # masking runs in the kernel's taxi-major layout (contiguous), and only
    # the final result is transposed (a free view) to the documented
    # request-major indexing.
    if pickup_matrix is not None:
        pick = np.asarray(pickup_matrix, dtype=np.float64)
        if pick.shape != (len(taxis), len(requests)):
            raise ValueError(
                f"pickup_matrix has shape {pick.shape}, "
                f"expected ({len(taxis)}, {len(requests)})"
            )
    else:
        pick = oracle_pairwise(
            oracle,
            sources=[t.location for t in taxis],
            targets=[r.pickup for r in requests],
            exact=True,
        )
    seats = np.array([t.seats for t in taxis], dtype=np.int64)
    party = np.array([r.passengers for r in requests], dtype=np.int64)
    allowed = (party[None, :] <= seats[:, None]) & (pick <= threshold_km)
    return np.where(allowed, pick, math.inf).T


class MinCostDispatcher(Dispatcher):
    """Minimum total pickup distance over a maximum set of pairs."""

    name = "MCBM"

    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        schedule = DispatchSchedule()
        if not taxis or not requests:
            return schedule
        ordered_requests = sorted(requests, key=lambda r: r.request_id)
        ordered_taxis = sorted(taxis, key=lambda t: t.taxi_id)
        pickup = self.distance_cache().pickup_matrix(ordered_taxis, ordered_requests)
        self.checkpoint("mcbm:start")
        matrix = build_cost_matrix(
            ordered_taxis,
            ordered_requests,
            self.oracle,
            self.config.passenger_threshold_km,
            pickup_matrix=pickup,
        )
        self.checkpoint("mcbm:cost-matrix")
        for j, i in min_cost_matching(matrix):
            schedule.add(single_assignment(ordered_taxis[i], ordered_requests[j]))
        return self._validated(schedule, taxis, requests)
