"""Dispatch layer: the Dispatcher protocol and the paper's ten dispatchers."""

from repro.dispatch.base import Dispatcher, group_assignment, single_assignment
from repro.dispatch.nonsharing import (
    GreedyNearestDispatcher,
    MinCostDispatcher,
    MinimaxDispatcher,
    NSTDDispatcher,
    nstd_p,
    nstd_t,
)
from repro.dispatch.scoring import AssignmentMetrics, assignment_metrics, route_leg_lengths
from repro.dispatch.sharing import (
    ILPDispatcher,
    RAIIDispatcher,
    SARPDispatcher,
    STDDispatcher,
    std_p,
    std_t,
)

__all__ = [
    "Dispatcher",
    "single_assignment",
    "group_assignment",
    "AssignmentMetrics",
    "assignment_metrics",
    "route_leg_lengths",
    "NSTDDispatcher",
    "nstd_p",
    "nstd_t",
    "GreedyNearestDispatcher",
    "MinCostDispatcher",
    "MinimaxDispatcher",
    "STDDispatcher",
    "std_p",
    "std_t",
    "RAIIDispatcher",
    "SARPDispatcher",
    "ILPDispatcher",
]
