"""MMCM baseline: minimax-cost bipartite matching (Hanna et al. [3], iii).

Matches as many pairs as MCBM but minimizes the *largest* matched pickup
distance, which is why the paper's Fig. 4(b) shows MMCM capping almost
every passenger's dissatisfaction at a common bound.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.types import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher, single_assignment
from repro.dispatch.nonsharing.mincost import build_cost_matrix
from repro.matching.bipartite import minimax_matching

__all__ = ["MinimaxDispatcher"]


class MinimaxDispatcher(Dispatcher):
    """Minimize the maximum matched pickup distance."""

    name = "MMCM"

    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        schedule = DispatchSchedule()
        if not taxis or not requests:
            return schedule
        ordered_requests = sorted(requests, key=lambda r: r.request_id)
        ordered_taxis = sorted(taxis, key=lambda t: t.taxi_id)
        pickup = self.distance_cache().pickup_matrix(ordered_taxis, ordered_requests)
        self.checkpoint("mmcm:start")
        matrix = build_cost_matrix(
            ordered_taxis,
            ordered_requests,
            self.oracle,
            self.config.passenger_threshold_km,
            pickup_matrix=pickup,
        )
        self.checkpoint("mmcm:cost-matrix")
        for j, i in minimax_matching(matrix):
            schedule.add(single_assignment(ordered_taxis[i], ordered_requests[j]))
        return self._validated(schedule, taxis, requests)
