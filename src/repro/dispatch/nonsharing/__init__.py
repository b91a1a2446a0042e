"""Non-sharing dispatchers: NSTD-P, NSTD-T, Greedy, MCBM, MMCM."""

from repro.dispatch.nonsharing.greedy import GreedyNearestDispatcher
from repro.dispatch.nonsharing.mincost import MinCostDispatcher, build_cost_matrix
from repro.dispatch.nonsharing.minimax import MinimaxDispatcher
from repro.dispatch.nonsharing.nstd import NSTDDispatcher, nstd_p, nstd_t

__all__ = [
    "NSTDDispatcher",
    "nstd_p",
    "nstd_t",
    "GreedyNearestDispatcher",
    "MinCostDispatcher",
    "MinimaxDispatcher",
    "build_cost_matrix",
]
