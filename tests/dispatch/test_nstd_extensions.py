"""Unit tests for NSTD extensions: heterogeneous drivers."""

import numpy as np
import pytest

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch import nstd_p, nstd_t
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.dispatch.sharing import build_sharing_table, pack_requests
from repro.geometry import EuclideanDistance, Point
from repro.matching import Matching, build_nonsharing_table, is_stable


@pytest.fixture()
def oracle():
    return EuclideanDistance()


def heterogeneous_market(seed=1, n=8):
    rng = np.random.default_rng(seed)
    taxis = [Taxi(i, Point(*rng.normal(0, 3, 2))) for i in range(n)]
    requests = [
        PassengerRequest(j, Point(*rng.normal(0, 3, 2)), Point(*rng.normal(0, 3, 2)))
        for j in range(n)
    ]
    alphas = {i: float(rng.uniform(0.0, 4.0)) for i in range(n)}
    return taxis, requests, alphas


class TestHeterogeneousDispatch:
    def test_p_and_t_can_differ(self, oracle):
        taxis, requests, alphas = heterogeneous_market(seed=1)
        config = DispatchConfig(passenger_threshold_km=9.0, taxi_threshold_km=9.0)
        p = NSTDDispatcher(
            oracle, config, optimize_for="passenger", alpha_by_taxi=alphas
        ).dispatch(taxis, requests)
        t = NSTDDispatcher(
            oracle, config, optimize_for="taxi", alpha_by_taxi=alphas
        ).dispatch(taxis, requests)
        assert p.taxi_of != t.taxi_of  # the two-point lattice of seed 1

    def test_unique_matching_under_homogeneous_alpha(self, oracle):
        taxis, requests, _ = heterogeneous_market(seed=5)
        config = DispatchConfig()
        assert (
            nstd_p(oracle, config).dispatch(taxis, requests).taxi_of
            == nstd_t(oracle, config).dispatch(taxis, requests).taxi_of
        )

    def test_both_remain_stable(self, oracle):
        taxis, requests, alphas = heterogeneous_market(seed=1)
        config = DispatchConfig(passenger_threshold_km=9.0, taxi_threshold_km=9.0)
        table = build_nonsharing_table(taxis, requests, oracle, config, alpha_by_taxi=alphas)
        for mode in ("passenger", "taxi"):
            schedule = NSTDDispatcher(
                oracle, config, optimize_for=mode, alpha_by_taxi=alphas
            ).dispatch(taxis, requests)
            assert is_stable(table, Matching(schedule.taxi_of)), mode


class TestSharingHeterogeneity:
    def test_alpha_changes_taxi_scores(self, oracle):
        # Driver score D + trip − (α+1)·trip: a short hop (1 km away, 1 km
        # trip) beats a long fare (3 km away, 4 km trip) at α = 0.1, and
        # loses to it at α = 1.
        taxis = [Taxi(0, Point(0, 0))]
        requests = [
            PassengerRequest(1, Point(1, 0), Point(2, 0)),
            PassengerRequest(2, Point(0, 3), Point(0, 7)),
        ]
        config = DispatchConfig(alpha=0.1, max_group_size=1)
        units = pack_requests(requests, oracle, config)
        assert [u.request_ids for u in units] == [(1,), (2,)]
        base = build_sharing_table(taxis, units, oracle, config).to_table()
        richer = build_sharing_table(
            taxis, units, oracle, config, alpha_by_taxi={0: 1.0}
        ).to_table()
        assert base.reviewer_prefs[0] == (0, 1)
        assert richer.reviewer_prefs[0] == (1, 0)

    def test_negative_alpha_rejected(self, oracle):
        from repro.core import PreferenceError

        with pytest.raises(PreferenceError):
            build_sharing_table(
                [Taxi(0, Point(0, 0))], [], oracle, DispatchConfig(), alpha_by_taxi={0: -1.0}
            )
