"""Event-driven streaming dispatch core with persistent zone sharding.

The streaming counterpart to the batch :class:`~repro.simulation.
engine.Simulator`: a monotonic virtual-clock event queue (request
arrivals, self-scheduling matching epochs) drives the shared run core
(:mod:`repro.simulation.core`) and a persistent per-zone NSTD matcher
with explicit boundary-taxi reconciliation and per-zone budget slices.
At epoch length ``e`` the engine is bit-identical to the cold batch
engine at frame length ``e`` — the default ``e`` is the frame length,
the equivalence mode the city-day benchmark asserts — and a shorter
epoch gives sub-frame reaction latency.

See DESIGN.md §14 and docs/ARCHITECTURE.md for the architecture.
"""

from repro.streaming.engine import StreamingEngine
from repro.streaming.events import (
    PRIORITY_MATCHING_EPOCH,
    PRIORITY_REQUEST_ARRIVAL,
    Event,
    EventQueue,
    MatchingEpoch,
    RequestArrival,
)
from repro.streaming.matcher import EpochMatchReport, ZoneMatcher
from repro.streaming.zones import (
    DEGENERATE_ANCHOR,
    EpochZonePlan,
    ZoneGroup,
    coarse_epoch_plan,
    plan_epoch_zones,
    zone_queue_depths,
)

__all__ = [
    "StreamingEngine",
    "ZoneMatcher",
    "EpochMatchReport",
    "EventQueue",
    "Event",
    "RequestArrival",
    "MatchingEpoch",
    "PRIORITY_REQUEST_ARRIVAL",
    "PRIORITY_MATCHING_EPOCH",
    "ZoneGroup",
    "EpochZonePlan",
    "plan_epoch_zones",
    "coarse_epoch_plan",
    "zone_queue_depths",
    "DEGENERATE_ANCHOR",
]
