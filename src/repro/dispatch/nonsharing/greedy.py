"""Greedy baseline: nearest idle taxi first (Hanna et al. [3], method i).

Requests are served in arrival (id) order; each takes the nearest idle
taxi with enough seats within the passenger threshold, nearest by the
paper's ``D(t_i, r_j^s)``.  This is the fastest — and least
driver-friendly — baseline.

Distances come from the frame's taxi × pickup matrix (see
:meth:`~repro.dispatch.base.Dispatcher.distance_cache`), so each request
is one masked argmin: taxis are id-sorted, and ``argmin``'s
first-minimum convention breaks distance ties toward the smaller taxi
id.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.types import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher, single_assignment

__all__ = ["GreedyNearestDispatcher"]


class GreedyNearestDispatcher(Dispatcher):
    """Dispatch each request to its nearest idle taxi, in request order."""

    name = "Greedy"

    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        schedule = DispatchSchedule()
        if not taxis or not requests:
            return schedule
        ordered_taxis = sorted(taxis, key=lambda t: t.taxi_id)
        ordered_requests = sorted(requests, key=lambda r: r.request_id)
        pick = self.distance_cache().pickup_matrix(ordered_taxis, ordered_requests)
        seats = np.array([t.seats for t in ordered_taxis], dtype=np.int64)
        available = np.ones(len(ordered_taxis), dtype=bool)
        threshold = self.config.passenger_threshold_km
        for j, request in enumerate(ordered_requests):
            if not available.any():
                break
            self.checkpoint("greedy:request")
            column = pick[:, j]
            feasible = available & (column <= threshold) & (request.passengers <= seats)
            if not feasible.any():
                continue
            i = int(np.argmin(np.where(feasible, column, np.inf)))
            available[i] = False
            schedule.add(single_assignment(ordered_taxis[i], request))
        return self._validated(schedule, taxis, requests)
