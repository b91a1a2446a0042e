"""Zone planning: grouping, boundary reconciliation, degenerate fallback.

Small hand-built geometries where the correct zone structure is
checkable by eye: the zone grid is explicit (``zone_km``), the
acceptability radius is the passenger threshold (the taxi threshold is
left unbounded), and every expected group is derived by hand.
"""

import math

import numpy as np
import pytest

from repro.core.config import DispatchConfig
from repro.core.types import PassengerRequest, Taxi
from repro.geometry import EuclideanDistance, Point
from repro.geometry.spatial_index import (
    UNBUCKETABLE_KEY,
    cell_key_column,
    grid_cells,
    pack_cell_keys,
)
from repro.streaming import (
    DEGENERATE_ANCHOR,
    coarse_epoch_plan,
    plan_epoch_zones,
    zone_queue_depths,
)

ORACLE = EuclideanDistance()
#: Radius = min(passenger_threshold_km, ∞) = 2 km exactly.
CONFIG = DispatchConfig(passenger_threshold_km=2.0)
ZONE_KM = 2.0


def _taxi(tid: int, x: float, y: float = 0.0) -> Taxi:
    return Taxi(taxi_id=tid, location=Point(x, y))


def _request(rid: int, x: float, y: float = 0.0) -> PassengerRequest:
    return PassengerRequest(
        request_id=rid,
        pickup=Point(x, y),
        dropoff=Point(x + 1.0, y),
        request_time_s=0.0,
    )


def _plan(taxis, requests, *, config=CONFIG, zone_km=ZONE_KM):
    taxi_xy = np.array([[t.location.x, t.location.y] for t in taxis], dtype=np.float64)
    pick_xy = np.array([[r.pickup.x, r.pickup.y] for r in requests], dtype=np.float64)
    trip = np.array(
        [ORACLE.distance(r.pickup, r.dropoff) for r in requests], dtype=np.float64
    )
    rids = np.array([r.request_id for r in requests], dtype=np.int64)
    alpha_max = float(config.alpha)
    return plan_epoch_zones(
        taxi_xy, pick_xy, trip, rids, ORACLE, config,
        alpha_max=alpha_max, zone_km=zone_km,
    )


class TestZoneGrouping:
    def test_far_clusters_form_isolated_single_zone_groups(self):
        """Two clusters far beyond any radius: one group per zone, no
        boundary traffic recorded."""
        plan = _plan(
            [_taxi(1, 0.5), _taxi(2, 100.5)],
            [_request(10, 0.6), _request(11, 100.6)],
        )
        assert plan.degenerate_reason is None
        assert len(plan.groups) == 2
        assert all(g.zone_count == 1 for g in plan.groups)
        assert plan.boundary_merges == 0
        assert plan.zones_occupied == 2
        # Anchors are distinct packed zone keys, usable as identities.
        assert len({g.anchor for g in plan.groups}) == 2
        assert all(g.anchor != DEGENERATE_ANCHOR for g in plan.groups)

    def test_boundary_taxi_merges_adjacent_zones(self):
        """A taxi at x=1.9 (zone [0,2)) and a request at x=2.1 (zone
        [2,4)) are 0.2 km apart — well inside the 2 km radius.  The
        planner must merge the two zones into one group rather than
        lose the cross-boundary pair."""
        plan = _plan([_taxi(1, 1.9)], [_request(10, 2.1)])
        assert plan.degenerate_reason is None
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert group.zone_count == 2
        assert plan.boundary_merges == 1
        assert group.taxi_rows.tolist() == [0]
        assert group.request_rows.tolist() == [0]

    def test_taxi_reaching_two_request_zones_builds_one_group(self):
        """One taxi between two request zones chains all three zones
        into a single solvable group (two merges)."""
        plan = _plan(
            [_taxi(1, 2.9)],
            [_request(10, 1.0), _request(11, 4.5)],
        )
        assert len(plan.groups) == 1
        assert plan.groups[0].zone_count == 3
        assert plan.boundary_merges == 2

    def test_zero_supply_zone_produces_no_group(self):
        """Requests in a zone with no taxi in reach have no acceptable
        partner anywhere; they get no solve group and stay pending —
        exactly the global solve's behaviour."""
        plan = _plan(
            [_taxi(1, 0.5)],
            [_request(10, 0.6), _request(11, 50.0)],
        )
        assert len(plan.groups) == 1
        assert plan.groups[0].request_rows.tolist() == [0]
        # The stranded request's zone still counts as occupied
        # (taxi and near request share one cell, the far request another).
        assert plan.zones_occupied == 2

    def test_group_ordering_smallest_pair_count_first(self):
        plan = _plan(
            [_taxi(1, 0.5), _taxi(2, 50.0), _taxi(3, 50.4), _taxi(4, 50.8)],
            [_request(10, 0.6), _request(11, 50.1), _request(12, 50.5)],
        )
        pair_counts = [g.pair_count for g in plan.groups]
        assert pair_counts == sorted(pair_counts)
        assert pair_counts[0] == 1


class TestDegenerateFallback:
    def test_unbounded_radii_fall_back_to_city_wide_group(self):
        """Both thresholds at ∞ make every radius unbounded: the zone
        structure is unknown, so the plan is one city-wide group with
        the sentinel anchor and the fallback reason recorded."""
        plan = _plan(
            [_taxi(1, 0.5), _taxi(2, 100.5)],
            [_request(10, 0.6), _request(11, 100.6)],
            config=DispatchConfig(),
        )
        assert plan.degenerate_reason is not None
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert group.anchor == DEGENERATE_ANCHOR
        assert group.taxi_rows.tolist() == [0, 1]
        assert group.request_rows.tolist() == [0, 1]
        assert plan.boundary_merges == 0
        assert plan.zones_occupied == 0


class TestZoneQueueDepths:
    def test_counts_per_occupied_zone(self):
        keys = cell_key_column(np.array([[0.5, 0.0], [1.0, 0.0], [2.5, 0.0]]), ZONE_KM)
        depths = zone_queue_depths(keys)
        assert sorted(depths.tolist()) == [1, 2]

    def test_empty_input(self):
        assert zone_queue_depths(cell_key_column(np.empty((0, 2)), ZONE_KM)).size == 0

    def test_unbucketable_coordinates_raise(self):
        keys = cell_key_column(np.array([[0.5, 0.0], [math.nan, 0.0]]), ZONE_KM)
        with pytest.raises(ValueError):
            zone_queue_depths(keys)


class TestCoarsePlan:
    """The coarse plan reads the requests' zone keys off a run-long column."""

    def test_one_group_over_every_occupied_zone(self):
        taxi_xy = np.array([[0.5, 0.0], [4.5, 0.0]])
        keys = cell_key_column(np.array([[0.6, 0.0], [2.5, 0.0], [2.6, 0.0]]), ZONE_KM)
        plan = coarse_epoch_plan(taxi_xy, keys, ZONE_KM)
        assert plan.coarse and plan.degenerate_reason is None
        (group,) = plan.groups
        assert group.taxi_rows.tolist() == [0, 1] and group.request_rows.tolist() == [0, 1, 2]
        assert plan.zones_occupied == 3
        expected = np.unique(np.concatenate([
            pack_cell_keys(grid_cells(taxi_xy, ZONE_KM)), keys,
        ]))
        assert group.zone_keys == tuple(expected.tolist())

    @pytest.mark.parametrize("side", ["taxi", "request"])
    def test_unbucketable_entity_takes_the_city_wide_fallback(self, side):
        far = [1e12, 0.0]
        taxi_xy = np.array([[0.5, 0.0], far if side == "taxi" else [1.5, 0.0]])
        pick_xy = np.array([[0.6, 0.0], far if side == "request" else [1.6, 0.0]])
        plan = coarse_epoch_plan(taxi_xy, cell_key_column(pick_xy, ZONE_KM), ZONE_KM)
        assert plan.degenerate_reason == "unbucketable-coordinates"
        (group,) = plan.groups
        assert group.anchor == DEGENERATE_ANCHOR
        assert group.request_rows.tolist() == [0, 1] and plan.zones_occupied == 0


class TestCellKeyColumn:
    """Row-wise zone keys: a row grid_cells rejects is flagged, the rest
    equal the whole-array packing."""

    def test_bucketable_rows_equal_the_array_packing(self):
        xy = np.array([[0.5, -3.0], [7.25, 1e3], [-0.1, 0.0]])
        keys = cell_key_column(xy, ZONE_KM)
        assert keys.tolist() == pack_cell_keys(grid_cells(xy, ZONE_KM)).tolist()
        assert keys.all()

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, 1e12, 1e30], ids=["nan", "inf", "overflow", "beyond-int64"]
    )
    def test_rejected_rows_are_flagged(self, bad):
        xy = np.array([[0.5, 0.0], [0.0, bad], [3.0, 1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            grid_cells(xy, ZONE_KM)
        with np.errstate(invalid="ignore"):
            keys = cell_key_column(xy, ZONE_KM)
        assert [k == UNBUCKETABLE_KEY for k in keys.tolist()] == [False, True, False]
        good = xy[[0, 2]]
        assert keys[[0, 2]].tolist() == pack_cell_keys(grid_cells(good, ZONE_KM)).tolist()
