"""Zone partition and boundary-taxi reconciliation for the streaming core.

The streaming engine dispatches per **zone**: a fixed square grid of
edge ``zone_km`` (the same floor-division convention as every grid in
the codebase, :func:`~repro.geometry.spatial_index.grid_cells`).  Zones
are *persistent* — the grid never moves — so each zone can carry its
own warm matcher state across epochs (:mod:`repro.streaming.matcher`).

**Boundary-taxi reconciliation.**  A taxi parked near a zone edge is
acceptable to requests in the neighbouring zone, so solving zones in
isolation would silently drop cross-zone pairs.  Instead of matching
per zone and patching the seams afterwards, the planner *merges* zones
into **solve groups** up front: zone cells are connected whenever some
request's acceptability radius (:func:`~repro.matching.sharding.
acceptability_radii`) reaches the neighbouring cell under the Chebyshev
cell-reach bound — exactly the θ-ball cell graph of
:mod:`repro.matching.sharding` evaluated at ``cell_km = zone_km``.
That cell graph is a supergraph of the true acceptability graph for any
oracle dominating L∞, so every acceptable cross-zone pair ends up
*inside* one group and the union of per-group stable matchings is the
global stable matching bit for bit (the component-decomposition
theorem).  Reconciliation is therefore exact by construction, and the
planner counts the zone merges it performed (``boundary_merges``) so
the run's telemetry shows how much cross-zone traffic there was.

Zones whose component holds only one side (e.g. a zone with pending
requests but zero supply in reach) produce no solve group: their
entities have no acceptable partner anywhere, exactly as in the global
solve, and stay pending for a later epoch.

Degenerate inputs fall back to one city-wide group — still the exact
global solve, with the reason recorded — via the same fallbacks as
:func:`~repro.matching.sharding.frame_decomposition` (non-dominating
oracle, unbounded radii, unbucketable coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DispatchConfig
from repro.geometry.distance import DistanceOracle
from repro.geometry.spatial_index import grid_cells, pack_cell_keys
from repro.matching.sharding import frame_decomposition, shard_problems

__all__ = [
    "DEGENERATE_ANCHOR",
    "ZoneGroup",
    "EpochZonePlan",
    "plan_epoch_zones",
    "coarse_epoch_plan",
    "zone_queue_depths",
]


#: Group anchor used when the epoch fell back to one city-wide group
#: (degenerate decomposition).  A real zone anchor is a packed uint64
#: cell key (always non-negative), so the sentinel can never collide.
DEGENERATE_ANCHOR = -1


@dataclass(frozen=True, slots=True)
class ZoneGroup:
    """One solvable group of zones: row positions into the epoch inputs.

    ``zone_keys`` are the ascending packed keys of the group's occupied
    zones (``(DEGENERATE_ANCHOR,)`` for the city-wide fallback group);
    they identify the group across epochs for warm-state reuse.  The
    matcher files a group's carried state under *every* key it spans,
    so a group whose zone composition shifted between epochs — a zone
    drained, a neighbouring zone merged in — still finds its state
    under any surviving key instead of going cold on anchor drift.
    """

    zone_keys: tuple[int, ...]
    taxi_rows: np.ndarray
    """Ascending row positions of this group's idle taxis."""
    request_rows: np.ndarray
    """Ascending row positions of this group's pending requests."""

    @property
    def anchor(self) -> int:
        """The group's smallest zone key, its reporting identity."""
        return self.zone_keys[0]

    @property
    def zone_count(self) -> int:
        """Distinct zones this group spans (1 = no boundary traffic)."""
        return len(self.zone_keys)

    @property
    def pair_count(self) -> int:
        """The dense pair block this group scores, ``Tg × Rg``."""
        return int(self.taxi_rows.size) * int(self.request_rows.size)


@dataclass(frozen=True, slots=True)
class EpochZonePlan:
    """One epoch's zone grouping, smallest group first.

    ``boundary_merges`` is ``Σ (zone_count − 1)`` over the groups: the
    number of zone-adjacency edges the reconciliation had to honour
    this epoch.  ``degenerate_reason`` is ``None`` for a real zone
    decomposition, else the :func:`~repro.matching.sharding.
    frame_decomposition` fallback reason.  ``coarse`` marks a plan from
    :func:`coarse_epoch_plan` — one deliberate city-wide group with no
    component computation behind it (and therefore no measured
    boundary merges).
    """

    groups: list[ZoneGroup]
    zone_km: float
    zones_occupied: int
    """Distinct zones holding at least one idle taxi or pending request."""
    boundary_merges: int
    degenerate_reason: str | None = None
    coarse: bool = False


def _group_zone_keys(
    taxi_cells: np.ndarray, request_cells: np.ndarray, group_t: np.ndarray, group_r: np.ndarray
) -> np.ndarray:
    """Distinct packed zone keys occupied by one group's entities."""
    keys = np.concatenate(
        [
            pack_cell_keys(taxi_cells[group_t]) if group_t.size else np.empty(0, np.uint64),
            pack_cell_keys(request_cells[group_r]) if group_r.size else np.empty(0, np.uint64),
        ]
    )
    return np.unique(keys)


def plan_epoch_zones(
    taxi_xy: np.ndarray,
    pick_xy: np.ndarray,
    trip_km: np.ndarray,
    request_ids: np.ndarray,
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    alpha_max: float,
    zone_km: float,
) -> EpochZonePlan:
    """Group this epoch's zones into independently solvable units.

    Reuses the θ-ball component machinery at fixed ``cell_km =
    zone_km`` granularity: the components of the zone graph *are* the
    solve groups, and any group spanning more than one zone records the
    boundary merges that built it.  Returns groups smallest first
    (ascending dense pair count, ties by minimum request id — the
    :func:`~repro.matching.sharding.shard_problems` order), the order
    in which the matcher claims carried warm states.

    Degenerate epochs (see module docstring) return one city-wide
    group anchored at :data:`DEGENERATE_ANCHOR` with zero recorded
    merges — the zone structure is unknown there, not absent.
    """
    decomp = frame_decomposition(
        taxi_xy,
        pick_xy,
        trip_km,
        oracle,
        config,
        alpha_max=alpha_max,
        cell_km=zone_km,
    )
    shards = shard_problems(decomp, request_ids)
    if decomp.degenerate_reason is not None:
        return EpochZonePlan(
            groups=[
                ZoneGroup(
                    zone_keys=(DEGENERATE_ANCHOR,),
                    taxi_rows=shard.taxi_rows,
                    request_rows=shard.request_rows,
                )
                for shard in shards
            ],
            zone_km=0.0,
            zones_occupied=0,
            boundary_merges=0,
            degenerate_reason=decomp.degenerate_reason,
        )
    # A non-degenerate decomposition bucketed these same coordinates at
    # this same cell size inside theta_components, so the grid calls
    # below cannot fail.
    taxi_cells = grid_cells(taxi_xy, zone_km)
    request_cells = grid_cells(pick_xy, zone_km)
    zones_occupied = int(
        np.unique(
            np.concatenate([pack_cell_keys(taxi_cells), pack_cell_keys(request_cells)])
        ).size
    )
    groups: list[ZoneGroup] = []
    boundary_merges = 0
    for shard in shards:
        zone_keys = _group_zone_keys(
            taxi_cells, request_cells, shard.taxi_rows, shard.request_rows
        )
        keys = tuple(zone_keys.tolist())
        boundary_merges += max(0, len(keys) - 1)
        groups.append(
            ZoneGroup(
                zone_keys=keys if keys else (DEGENERATE_ANCHOR,),
                taxi_rows=shard.taxi_rows,
                request_rows=shard.request_rows,
            )
        )
    return EpochZonePlan(
        groups=groups,
        zone_km=float(zone_km),
        zones_occupied=zones_occupied,
        boundary_merges=boundary_merges,
        degenerate_reason=None,
    )


def coarse_epoch_plan(
    taxi_xy: np.ndarray, request_keys: np.ndarray, zone_km: float
) -> EpochZonePlan:
    """One deliberate city-wide group, skipping component analysis.

    Solving every entity as a single group is *always* exact — it is
    literally the global solve — so a caller may substitute this plan
    for :func:`plan_epoch_zones` on any epoch without changing the
    matching.  The matcher uses it between periodic full replans on
    cities whose last full decomposition was a single component anyway:
    the zone keys (cheap grid bucketing) are still computed, so warm
    state stays filed per zone and the occupancy telemetry stays live,
    but the θ-ball component sweep — the expensive part — is skipped.

    ``request_keys`` are the requests' packed zone keys at ``zone_km``,
    read from a run-long column
    (:func:`~repro.geometry.spatial_index.cell_key_column`).  Falls back
    exactly like the full planner when a taxi or a pickup cannot be
    bucketed (a request key of
    :data:`~repro.geometry.spatial_index.UNBUCKETABLE_KEY`).
    """
    all_taxi_rows = np.arange(len(taxi_xy), dtype=np.int64)
    all_request_rows = np.arange(len(request_keys), dtype=np.int64)
    try:
        taxi_keys = pack_cell_keys(grid_cells(taxi_xy, zone_km))
    except ValueError:
        taxi_keys = None
    if taxi_keys is None or not request_keys.all():
        return EpochZonePlan(
            groups=[
                ZoneGroup(
                    zone_keys=(DEGENERATE_ANCHOR,),
                    taxi_rows=all_taxi_rows,
                    request_rows=all_request_rows,
                )
            ],
            zone_km=0.0,
            zones_occupied=0,
            boundary_merges=0,
            degenerate_reason="unbucketable-coordinates",
            coarse=True,
        )
    keys = np.unique(np.concatenate([taxi_keys, request_keys]))
    return EpochZonePlan(
        groups=[
            ZoneGroup(
                zone_keys=tuple(keys.tolist()),
                taxi_rows=all_taxi_rows,
                request_rows=all_request_rows,
            )
        ],
        zone_km=float(zone_km),
        zones_occupied=int(keys.size),
        boundary_merges=0,
        degenerate_reason=None,
        coarse=True,
    )


def zone_queue_depths(request_keys: np.ndarray) -> np.ndarray:
    """Pending-request count per occupied zone (descending not required),
    from the requests' packed zone keys.

    Raises ``ValueError`` when a key is
    :data:`~repro.geometry.spatial_index.UNBUCKETABLE_KEY` (a pickup the
    grid cannot bucket); the engine treats that as "no zone telemetry
    this epoch", never as an error.
    """
    if not request_keys.all():
        raise ValueError("a pickup cannot be bucketed")
    _, counts = np.unique(request_keys, return_counts=True)
    return counts.astype(np.int64, copy=False)
