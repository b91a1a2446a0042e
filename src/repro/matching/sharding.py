"""θ-ball component decomposition: spatially sharded stable matching.

**Component-decomposition theorem.**  The non-sharing acceptability
graph of one frame is spatially local: a pair ``(t, r)`` can only be
mutually acceptable when the pickup distance satisfies both thresholds,
``D(t, r^s) ≤ min(θ_pass, τ + α·trip_r)``.  Call that bound the
request's *acceptability radius*.  Partition the frame's taxis and
requests into the connected components of the bipartite graph whose
edges are the pairs within radius (the *θ-ball graph*).  Every
acceptable pair then lies inside one component, so the frame's
preference structure is a disjoint union of per-component structures —
and deferred acceptance never crosses components either: a proposer
only ever proposes down its own list.  Hence the proposer-optimal
stable matching of the frame **is** the union of the proposer-optimal
stable matchings of its components (and likewise for every other
stable matching, the lattice being a product of component lattices).
Entities in a component containing only one side have no acceptable
partner and stay unmatched, exactly as in the global solve.

**Global ordering convention.**  Bit-identity additionally needs ties
to break identically.  Preference lists order partners by
``(score, partner id)`` with *globally unique* ids
(:func:`~repro.matching.preferences.arrays_from_pairs`), and both the
scores and the id tie-breaks are properties of the pair alone — so the
global order restricted to a component is the component's own order,
and solving each component with the standard builders reproduces the
global lists verbatim.  The per-shard matchings therefore union to the
global matching *bit for bit*, which the benchmark and the Hypothesis
suite assert.

**Grid-coarsened components.**  Computing exact θ-ball components would
itself cost the all-pairs distances the decomposition exists to avoid.
Instead, entities are bucketed on a uniform grid
(:func:`~repro.geometry.spatial_index.grid_cells`, the same
floor-division convention as :class:`~repro.geometry.spatial_index.
GridSpatialIndex`) and components are computed over *cells*: a request
cell connects to every taxi cell within its Chebyshev
:func:`~repro.geometry.spatial_index.cell_reach` (``floor(radius/cell)
+ 2``, the object index's slop-absorbing bound).  For any oracle that
dominates L∞ (:func:`~repro.geometry.distance.oracle_dominates_linf`)
this cell graph is a *supergraph* of the θ-ball graph, so its connected
components only ever **merge** true components — never split one — and
the union-of-shards argument above still applies, just with possibly
coarser shards.  Over-merging is therefore always sound; the degenerate
extreme (everything in one shard) is exactly the global solve.  No
cross-shard pair is ever distance-evaluated: candidate generation is
pure integer cell arithmetic plus one sparse connected-components pass
(the array form of grid-bucketed union-find).

Degenerate inputs (a non-dominating oracle, unbounded radii, or
non-finite coordinates) fall back to that single global shard
explicitly, with the reason recorded for telemetry.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.core.config import DispatchConfig
from repro.core.errors import PreferenceError
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.distance import DistanceOracle, oracle_dominates_linf
from repro.geometry.spatial_index import cell_reach, grid_cells, pack_cell_keys
from repro.matching.optimality import passenger_optimal
from repro.matching.preferences import build_nonsharing_arrays
from repro.matching.result import Matching

__all__ = [
    "ShardDecomposition",
    "Shard",
    "acceptability_radii",
    "default_cell_km",
    "theta_components",
    "frame_decomposition",
    "shard_problems",
    "solve_shard",
]


@dataclass(frozen=True, slots=True)
class ShardDecomposition:
    """Connected-component labels of one frame's θ-ball cell graph.

    Labels are dense ``0..n_shards-1`` integers over the *cell* graph,
    so they depend only on the multiset of occupied cells and the
    per-cell reaches — permuting the input entities permutes the label
    arrays with them but never renumbers a component, which is the
    determinism property the sharded solve inherits.
    """

    taxi_labels: np.ndarray
    """``(T,)`` int64 component label per taxi, in frame order."""
    request_labels: np.ndarray
    """``(R,)`` int64 component label per request, in frame order."""
    n_shards: int
    """Number of components (mixed, taxi-only and request-only alike)."""
    cell_km: float
    """Grid cell edge used for the coarsening (0.0 when degenerate)."""
    degenerate_reason: str | None = None
    """Why the frame fell back to one global shard, if it did."""


@dataclass(frozen=True, slots=True)
class Shard:
    """One solvable sub-frame: row positions into the frame sequences."""

    label: int
    taxi_rows: np.ndarray
    """Ascending row positions of this shard's taxis."""
    request_rows: np.ndarray
    """Ascending row positions of this shard's requests."""

    @property
    def pair_count(self) -> int:
        """The dense pair block this shard scores, ``Tc × Rc``."""
        return int(self.taxi_rows.size) * int(self.request_rows.size)


def acceptability_radii(
    trip_km: np.ndarray, config: DispatchConfig, *, alpha_max: float
) -> np.ndarray:
    """Per-request pickup radius beyond which no taxi can be acceptable.

    An acceptable pair needs ``pick ≤ θ_pass`` and
    ``pick − α_t·trip ≤ τ``, so ``pick ≤ min(θ_pass, τ + α_t·trip)``;
    with ``α_t ≤ alpha_max`` and ``trip ≥ 0`` the returned
    ``min(θ_pass, max(0, τ + alpha_max·trip))`` bounds every taxi's
    condition at once.  A NaN bound (an unmeasurable trip) widens to
    ``θ_pass`` — over-inclusion is always sound here.
    """
    trip = np.asarray(trip_km, dtype=np.float64)
    bound = config.taxi_threshold_km + alpha_max * trip
    bound = np.where(np.isnan(bound), np.inf, bound)
    return np.minimum(config.passenger_threshold_km, np.maximum(0.0, bound))


def default_cell_km(radii: np.ndarray) -> float:
    """A workable coarsening cell: the median positive radius.

    Cells near the typical acceptability radius keep the reach boxes a
    handful of cells wide (cheap candidate enumeration) while still
    separating clusters farther apart than one radius.  Degenerate
    frames (all radii zero) fall back to 1 km; correctness never
    depends on the choice — only shard granularity does.
    """
    positive = radii[radii > 0.0]
    if positive.size == 0 or not bool(np.all(np.isfinite(positive))):
        return 1.0
    return float(np.median(positive))


def theta_components(
    taxi_xy: np.ndarray,
    pick_xy: np.ndarray,
    radii: np.ndarray,
    *,
    cell_km: float,
) -> ShardDecomposition:
    """Label the frame's grid-coarsened θ-ball components.

    ``radii`` must be finite (callers route unbounded frames through the
    explicit single-shard fallback).  Raises ``ValueError`` on
    non-finite or out-of-range coordinates, as :func:`grid_cells` does.

    The sweep groups request cells by their shared Chebyshev reach and,
    per group, either enumerates the ``(2k+1)²`` offset box (joined to
    the sorted taxi-cell keys with ``searchsorted``) or, when the box is
    larger than the taxi-cell population, broadcasts the Chebyshev
    comparison against all occupied taxi cells.  Offset cells outside
    the packable key range may collide with real keys; a collision adds
    a spurious cell edge, which only over-merges — sound by the
    supergraph argument in the module docstring.
    """
    tcells = grid_cells(taxi_xy, cell_km)
    rcells = grid_cells(pick_xy, cell_km)
    tkeys = pack_cell_keys(tcells)
    rkeys = pack_cell_keys(rcells)
    tkeys_u, tidx, tinv = np.unique(tkeys, return_index=True, return_inverse=True)
    rkeys_u, ridx, rinv = np.unique(rkeys, return_index=True, return_inverse=True)
    tc_u = tcells[tidx]
    rc_u = rcells[ridx]
    reach = cell_reach(radii, cell_km)
    per_cell_reach = np.zeros(rkeys_u.size, dtype=np.int64)
    np.maximum.at(per_cell_reach, rinv, reach)

    edge_r: list[np.ndarray] = []
    edge_t: list[np.ndarray] = []
    for k in np.unique(per_cell_reach).tolist():
        group = np.flatnonzero(per_cell_reach == k)
        if (2 * k + 1) ** 2 <= tkeys_u.size:
            span = np.arange(-k, k + 1, dtype=np.int64)
            offsets = np.stack(np.meshgrid(span, span, indexing="ij"), axis=-1).reshape(-1, 2)
            candidates = rc_u[group][:, None, :] + offsets[None, :, :]
            ckeys = pack_cell_keys(candidates.reshape(-1, 2)).reshape(group.size, -1)
            pos = np.searchsorted(tkeys_u, ckeys)
            pos[pos == tkeys_u.size] = 0
            hit = tkeys_u[pos] == ckeys
            gi, _ = np.nonzero(hit)
            edge_r.append(group[gi])
            edge_t.append(pos[hit])
        else:
            dx = np.abs(rc_u[group][:, None, 0] - tc_u[None, :, 0])
            dy = np.abs(rc_u[group][:, None, 1] - tc_u[None, :, 1])
            gi, tj = np.nonzero(np.maximum(dx, dy) <= k)
            edge_r.append(group[gi])
            edge_t.append(tj)

    n_tc = int(tkeys_u.size)
    n_rc = int(rkeys_u.size)
    er = np.concatenate(edge_r) if edge_r else np.empty(0, dtype=np.int64)
    et = np.concatenate(edge_t) if edge_t else np.empty(0, dtype=np.int64)
    n_nodes = n_tc + n_rc
    graph = sp.coo_matrix(
        (np.ones(er.size, dtype=np.int8), (et, n_tc + er)), shape=(n_nodes, n_nodes)
    )
    n_comp, labels = connected_components(graph, directed=False)
    labels = labels.astype(np.int64, copy=False)
    return ShardDecomposition(
        taxi_labels=labels[:n_tc][tinv],
        request_labels=labels[n_tc:][rinv],
        n_shards=int(n_comp),
        cell_km=float(cell_km),
    )


def _single_shard(n_taxis: int, n_requests: int, reason: str) -> ShardDecomposition:
    return ShardDecomposition(
        taxi_labels=np.zeros(n_taxis, dtype=np.int64),
        request_labels=np.zeros(n_requests, dtype=np.int64),
        n_shards=1,
        cell_km=0.0,
        degenerate_reason=reason,
    )


def frame_decomposition(
    taxi_xy: np.ndarray,
    pick_xy: np.ndarray,
    trip_km: np.ndarray,
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    alpha_max: float,
    cell_km: float | None = None,
) -> ShardDecomposition:
    """Decompose one frame, degrading to a single global shard whenever
    the grid coarsening would be unsound or unrepresentable.

    ``taxi_xy`` / ``pick_xy`` are ``(T, 2)`` / ``(R, 2)`` km-scaled
    coordinate arrays in frame order; ``trip_km`` the per-request trip
    distances aligned with ``pick_xy``; ``alpha_max`` the largest
    per-driver α in play (radii must cover the choosiest driver);
    ``cell_km`` overrides the :func:`default_cell_km` grid pitch.
    Never raises — every degenerate input becomes a fallback.

    The fallbacks (recorded in ``degenerate_reason``): an oracle not
    known to dominate L∞ (``"oracle"``), an infinite acceptability
    radius (``"unbounded-radius"``, e.g. both thresholds infinite), a
    radius too large for the integer reach (``"radius-overflow"``), and
    coordinates the grid cannot bucket (``"unbucketable-coordinates"``).
    Every fallback is the exact global solve, so degeneracy affects
    performance only.
    """
    n_taxis = int(len(taxi_xy))
    n_requests = int(len(pick_xy))
    if not oracle_dominates_linf(oracle):
        return _single_shard(n_taxis, n_requests, "oracle")
    radii = acceptability_radii(trip_km, config, alpha_max=alpha_max)
    if not bool(np.all(np.isfinite(radii))):
        return _single_shard(n_taxis, n_requests, "unbounded-radius")
    cell = default_cell_km(radii) if cell_km is None else float(cell_km)
    if not bool(np.all(radii < cell * float(2**31))):
        return _single_shard(n_taxis, n_requests, "radius-overflow")
    try:
        return theta_components(taxi_xy, pick_xy, radii, cell_km=cell)
    except ValueError:
        return _single_shard(n_taxis, n_requests, "unbucketable-coordinates")


def shard_problems(decomp: ShardDecomposition, request_ids: np.ndarray) -> list[Shard]:
    """The frame's solvable shards, smallest first.

    Only components holding both sides produce a matching problem — the
    rest stay unmatched by the decomposition theorem.  Shards are
    ordered by ascending dense pair count ``Tc·Rc`` with ties broken by
    the shard's minimum request id — an order that depends only on the
    shards' contents, never on input positions.
    """
    taxi_labels = decomp.taxi_labels
    request_labels = decomp.request_labels
    n = decomp.n_shards
    t_count = np.bincount(taxi_labels, minlength=n)
    r_count = np.bincount(request_labels, minlength=n)
    mixed = np.flatnonzero((t_count > 0) & (r_count > 0))
    if mixed.size == 0:
        return []
    # Stable label sorts keep each shard's rows in ascending frame order.
    t_order = np.argsort(taxi_labels, kind="stable")
    r_order = np.argsort(request_labels, kind="stable")
    t_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(t_count, out=t_indptr[1:])
    r_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(r_count, out=r_indptr[1:])
    min_rid = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(min_rid, request_labels, np.asarray(request_ids, dtype=np.int64))
    pair_counts = t_count * r_count
    order = mixed[np.lexsort((min_rid[mixed], pair_counts[mixed]))]
    return [
        Shard(
            label=int(c),
            taxi_rows=t_order[t_indptr[c] : t_indptr[c + 1]],
            request_rows=r_order[r_indptr[c] : r_indptr[c + 1]],
        )
        for c in order.tolist()
    ]


def solve_shard(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    trip_km: np.ndarray | None = None,
) -> Matching:
    """Solve one shard with the standard cold builders (NSTD-P).

    The shard never sees a taxi × request block beyond its own, and the
    builders' ``(score, global id)`` ordering makes its lists the global
    lists restricted to the component (the ordering convention above).
    """
    prefs = build_nonsharing_arrays(taxis, requests, oracle, config, trip_km=trip_km)
    return passenger_optimal(prefs)


def _check_global_ids(
    taxi_ids: np.ndarray, request_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frame-order id arrays, validated unique across the *whole* frame.

    Per-shard builders can only check uniqueness inside their shard;
    without this frame-level check a duplicate id split across two
    shards would silently merge two entities the global builder rejects.
    ``taxi_ids`` and ``request_ids`` are the frame's id columns in fleet
    and request order (the streaming engine gathers both off its run
    core).  An id array that strictly ascends is unique by one
    vectorized comparison; only one that does not is sorted to find a
    repeat.  Fleet rows follow the fleet's order and trace rows the
    requests' (time, id) order, so the engines' ids ascend whenever the
    fleet and the trace number their entities in those orders — the
    synthetic workloads do — and take the comparison.
    """
    taxi_ids = np.asarray(taxi_ids, dtype=np.int64)
    request_ids = np.asarray(request_ids, dtype=np.int64)
    if not _ids_distinct(taxi_ids):
        raise PreferenceError("duplicate taxi ids")
    if not _ids_distinct(request_ids):
        raise PreferenceError("duplicate request ids")
    return taxi_ids, request_ids


def _ids_distinct(ids: np.ndarray) -> bool:
    """Whether no id repeats: a strict ascent proves it without a sort."""
    if ids.size < 2 or bool(np.all(ids[1:] > ids[:-1])):
        return True
    return bool(np.unique(ids).size == ids.size)
