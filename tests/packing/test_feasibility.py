"""Unit tests for feasible-group enumeration (Algorithm 3, line 1)."""

import pytest

from repro.core import DispatchConfig, PackingError, PassengerRequest
from repro.geometry import EuclideanDistance, Point
from repro.packing import enumerate_feasible_groups, group_is_feasible
from repro.packing.feasibility import GroupMemo


@pytest.fixture()
def oracle():
    return EuclideanDistance()


def request(rid, sx, sy, dx, dy, passengers=1):
    return PassengerRequest(rid, Point(sx, sy), Point(dx, dy), passengers=passengers)


class TestGroupIsFeasible:
    def test_parallel_trips_share_with_zero_detour(self, oracle):
        # Two collinear nested trips: optimal route has no detour at all.
        a = request(1, 0, 0, 4, 0)
        b = request(2, 1, 0, 3, 0)
        assert group_is_feasible((a, b), oracle, theta_km=0.0)

    def test_theta_bound_enforced(self, oracle):
        # Perpendicular trips force a real detour on someone.
        a = request(1, 0, 0, 10, 0)
        b = request(2, 5, 5, 5, -5)
        assert not group_is_feasible((a, b), oracle, theta_km=0.1)
        assert group_is_feasible((a, b), oracle, theta_km=50.0)

    def test_max_passengers(self, oracle):
        a = request(1, 0, 0, 1, 0, passengers=3)
        b = request(2, 0, 0, 1, 0, passengers=2)
        assert not group_is_feasible((a, b), oracle, theta_km=10.0, max_passengers=4)
        assert group_is_feasible((a, b), oracle, theta_km=10.0, max_passengers=5)

    def test_empty_group_raises(self, oracle):
        with pytest.raises(PackingError):
            group_is_feasible((), oracle, 1.0)

    def test_singleton_always_feasible(self, oracle):
        assert group_is_feasible((request(1, 0, 0, 5, 0),), oracle, theta_km=0.0)


class TestEnumeration:
    def test_finds_pairs_and_triples(self, oracle):
        # Three nested collinear trips: every subset shares perfectly.
        requests = [
            request(1, 0, 0, 6, 0),
            request(2, 1, 0, 5, 0),
            request(3, 2, 0, 4, 0),
        ]
        groups = enumerate_feasible_groups(requests, oracle, DispatchConfig(theta_km=0.5))
        sizes = sorted(g.size for g in groups)
        assert sizes == [2, 2, 2, 3]

    def test_group_ids_consecutive(self, oracle):
        requests = [request(i, 0.1 * i, 0, 5, 0) for i in range(1, 5)]
        groups = enumerate_feasible_groups(requests, oracle, DispatchConfig())
        assert [g.group_id for g in groups] == list(range(len(groups)))

    def test_max_group_size_one_yields_nothing(self, oracle):
        requests = [request(1, 0, 0, 5, 0), request(2, 0, 0, 5, 0)]
        groups = enumerate_feasible_groups(
            requests, oracle, DispatchConfig(max_group_size=1)
        )
        assert groups == []

    def test_metric_pruning_is_a_subset_and_pair_exact(self, oracle):
        import numpy as np

        rng = np.random.default_rng(0)
        requests = [
            request(i, *rng.uniform(-3, 3, 2), *rng.uniform(-3, 3, 2)) for i in range(9)
        ]
        config = DispatchConfig(theta_km=2.0)
        pruned = enumerate_feasible_groups(requests, oracle, config, assume_metric=True)
        full = enumerate_feasible_groups(requests, oracle, config, assume_metric=False)
        pruned_ids = {g.request_ids for g in pruned}
        full_ids = {g.request_ids for g in full}
        # The heuristic never invents groups and is exact on pairs.
        assert pruned_ids <= full_ids
        assert {ids for ids in pruned_ids if len(ids) == 2} == {
            ids for ids in full_ids if len(ids) == 2
        }
        # It keeps the vast majority of triples on realistic geometry.
        full_triples = {ids for ids in full_ids if len(ids) == 3}
        pruned_triples = {ids for ids in pruned_ids if len(ids) == 3}
        if full_triples:
            assert len(pruned_triples) >= 0.5 * len(full_triples)

    def test_pairing_radius_prunes_distant_pairs(self, oracle):
        # Far-apart pickups form a degenerate sequential "share".
        a = request(1, 0, 0, 1, 0)
        b = request(2, 50, 0, 51, 0)
        config = DispatchConfig(theta_km=5.0)
        without = enumerate_feasible_groups([a, b], oracle, config)
        with_radius = enumerate_feasible_groups(
            [a, b], oracle, config, pairing_radius_km=10.0
        )
        assert len(without) == 1  # the sequential pair is theta-feasible
        assert with_radius == []

    def test_stats(self, oracle):
        requests = [
            request(1, 0, 0, 6, 0),
            request(2, 1, 0, 5, 0),
            request(3, 2, 0, 4, 0),
        ]
        _, stats = enumerate_feasible_groups(
            requests, oracle, DispatchConfig(theta_km=0.5), with_stats=True
        )
        assert stats.pairs_tested == 3
        assert stats.pairs_feasible == 3
        assert stats.triples_feasible == 1
        assert stats.groups == 4

    def test_cache_skips_recomputation(self, oracle):
        requests = [request(i, 0.2 * i, 0, 5, 0) for i in range(1, 7)]
        config = DispatchConfig()
        cache = GroupMemo()
        first, stats1 = enumerate_feasible_groups(
            requests, oracle, config, cache=cache, with_stats=True
        )
        cache.drop_family("memo-cleared")  # a full scan, served by memo hits
        second, stats2 = enumerate_feasible_groups(
            requests, oracle, config, cache=cache, with_stats=True
        )
        assert {g.request_ids for g in first} == {g.request_ids for g in second}
        assert stats2.pairs_tested == 0
        assert stats2.triples_tested == 0

    def test_cached_groups_get_fresh_ids(self, oracle):
        requests = [request(i, 0.1 * i, 0, 5, 0) for i in range(1, 4)]
        cache = GroupMemo()
        enumerate_feasible_groups(requests, oracle, DispatchConfig(), cache=cache)
        groups = enumerate_feasible_groups(requests, oracle, DispatchConfig(), cache=cache)
        assert [g.group_id for g in groups] == list(range(len(groups)))

    def test_group_detours_within_theta(self, oracle):
        import numpy as np

        rng = np.random.default_rng(1)
        requests = [
            request(i, *rng.uniform(-3, 3, 2), *rng.uniform(-3, 3, 2)) for i in range(8)
        ]
        theta = 1.5
        groups = enumerate_feasible_groups(requests, oracle, DispatchConfig(theta_km=theta))
        for group in groups:
            for member in group.requests:
                assert group.detour_km(member.request_id, oracle) <= theta + 1e-6
