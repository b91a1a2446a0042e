"""Event-driven streaming dispatch core with persistent zone sharding.

The streaming counterpart to the batch :class:`~repro.simulation.
engine.Simulator`, taking the same inputs: a monotonic virtual-clock
event queue (request arrivals, matching epochs every
``frame_length_s``) drives the shared run core
(:mod:`repro.simulation.core`) and a persistent per-zone NSTD-P matcher
with explicit boundary-taxi reconciliation.  Under one
:class:`~repro.core.config.SimulationConfig` the engine is bit-identical
to the cold batch engine — the equivalence the city-day benchmark
asserts at the default one-minute frame and the tests assert at 60, 30
and 15 s.

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
