"""Property tests: the dense preference builder equals the scalar reference.

The vectorized dense builder must reproduce the scalar double-loop
reference *exactly* — same preference orders,
same deterministic id tie-breaks, bit-identical score floats — on
random geometry with heterogeneous per-driver alphas and
seat-infeasible pairs.  Coordinates are drawn partly from a coarse
integer lattice so equal scores (and hence the id tie-break) genuinely
occur instead of hiding behind float noise.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.dispatch import GreedyNearestDispatcher
from repro.dispatch.nonsharing.mincost import build_cost_matrix
from repro.dispatch.sharing.preferences import (
    build_sharing_table,
    group_passenger_score,
    group_taxi_score,
)
from repro.geometry import (
    EuclideanDistance,
    HaversineDistance,
    ManhattanDistance,
    Point,
    ScaledDistance,
)
from repro.matching import build_nonsharing_table
from repro.matching.preferences import _checked_alphas, _dense_pairs
from repro.routing.shared_route import build_ride_group
from tests.oracles import build_nonsharing_table_reference, nonsharing_scores_reference
from tests.support import oneway_ring

TAXI_ID_BASE = 100

#: Lattice coordinates collide often (score ties); continuous ones
#: exercise arbitrary float arithmetic.
coordinate = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False),
)

points = st.builds(Point, coordinate, coordinate)

#: All symmetric; the asymmetric batch-exact oracle (RoadNetwork with
#: oneway edges) is covered deterministically in
#: TestAsymmetricRoadNetwork below.
oracles = st.sampled_from(
    [
        EuclideanDistance(),
        ManhattanDistance(),
        ScaledDistance(EuclideanDistance(), 1.5),
        ScaledDistance(ManhattanDistance(), 2.0),
        # No exact batch kernels: exercises the scalar-fallback contract.
        HaversineDistance(),
    ]
)

configs = st.builds(
    DispatchConfig,
    passenger_threshold_km=st.sampled_from([math.inf, 2.0, 5.0, 400.0]),
    taxi_threshold_km=st.sampled_from([math.inf, -1.0, 1.0, 5.0]),
)


@st.composite
def markets(draw):
    taxis = [
        Taxi(TAXI_ID_BASE + i, draw(points), seats=draw(st.integers(1, 4)))
        for i in range(draw(st.integers(0, 6)))
    ]
    requests = [
        PassengerRequest(
            j, draw(points), draw(points), passengers=draw(st.integers(1, 6))
        )
        for j in range(draw(st.integers(0, 8)))
    ]
    alpha_by_taxi = {
        t.taxi_id: draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        for t in taxis
        if draw(st.booleans())
    }
    return taxis, requests, alpha_by_taxi


def dense_scores(taxis, requests, oracle, config=None, *, alpha_by_taxi=None):
    """Both scores of every pair the dense builder keeps, keyed as
    :func:`nonsharing_scores_reference` keys them."""
    config = config if config is not None else DispatchConfig()
    alphas = _checked_alphas(taxis, requests, config, alpha_by_taxi)
    rj, ti, pick, driver = _dense_pairs(taxis, requests, oracle, config, alphas, None, None)
    return {
        (requests[j].request_id, taxis[i].taxi_id): (p, d)
        for j, i, p, d in zip(rj.tolist(), ti.tolist(), pick.tolist(), driver.tolist())
    }


def assert_builds_identical(taxis, requests, oracle, config, alpha_by_taxi, context):
    reference = build_nonsharing_table_reference(
        taxis, requests, oracle, config, alpha_by_taxi=alpha_by_taxi
    )
    candidate = build_nonsharing_table(
        taxis, requests, oracle, config, alpha_by_taxi=alpha_by_taxi
    )
    assert candidate.proposer_prefs == reference.proposer_prefs, context
    assert candidate.reviewer_prefs == reference.reviewer_prefs, context
    # Dict equality on floats is bitwise up to 0.0 == -0.0; distances and
    # score differences here never produce negative zero from a positive
    # one, so this is the bit-identity check the kernels promise.
    expected = nonsharing_scores_reference(
        taxis, requests, oracle, config, alpha_by_taxi=alpha_by_taxi
    )
    assert dense_scores(
        taxis, requests, oracle, config, alpha_by_taxi=alpha_by_taxi
    ) == expected, context


@settings(max_examples=120, deadline=None)
@given(markets(), oracles, configs)
def test_every_engine_matches_scalar_reference(market, oracle, config):
    taxis, requests, alpha_by_taxi = market
    assert_builds_identical(taxis, requests, oracle, config, alpha_by_taxi, "dense")


@settings(max_examples=60, deadline=None)
@given(markets(), oracles)
def test_alpha_heterogeneity_changes_only_reviewer_side(market, oracle):
    """Sanity anchor: alphas shift driver scores, never pickup scores."""
    taxis, requests, alpha_by_taxi = market
    config = DispatchConfig()
    plain = dense_scores(taxis, requests, oracle, config)
    mixed = dense_scores(taxis, requests, oracle, config, alpha_by_taxi=alpha_by_taxi)
    for pair in set(plain) & set(mixed):
        assert plain[pair][0] == mixed[pair][0]


class TestThresholdBoundary:
    """A pair at *exactly* the acceptance threshold is always kept —
    the inclusive-boundary invariant of the acceptability masks."""

    def test_boundary_pair_kept_by_every_engine(self):
        # Euclidean distance exactly 5.0 (3-4-5 triangle, exact in fp).
        taxis = [Taxi(TAXI_ID_BASE, Point(3.0, 4.0))]
        requests = [PassengerRequest(0, Point(0.0, 0.0), Point(0.0, 1.0))]
        oracle = EuclideanDistance()
        config = DispatchConfig(passenger_threshold_km=5.0, taxi_threshold_km=5.0)
        for build in (build_nonsharing_table_reference, build_nonsharing_table):
            table = build(taxis, requests, oracle, config)
            assert table.proposer_prefs[0] == (TAXI_ID_BASE,), build.__name__
        for scores in (nonsharing_scores_reference, dense_scores):
            pair = scores(taxis, requests, oracle, config)[(0, TAXI_ID_BASE)]
            assert pair[0] == 5.0, scores.__name__

    def test_just_beyond_threshold_dropped_by_every_engine(self):
        taxis = [Taxi(TAXI_ID_BASE, Point(3.0, 4.0))]
        requests = [PassengerRequest(0, Point(0.0, 0.0), Point(0.0, 1.0))]
        oracle = EuclideanDistance()
        config = DispatchConfig(
            passenger_threshold_km=math.nextafter(5.0, 0.0), taxi_threshold_km=5.0
        )
        for build in (build_nonsharing_table_reference, build_nonsharing_table):
            table = build(taxis, requests, oracle, config)
            assert table.proposer_prefs[0] == (), build.__name__

    @settings(max_examples=80, deadline=None)
    @given(markets(), st.sampled_from([EuclideanDistance(), ManhattanDistance()]))
    def test_realized_distance_threshold_keeps_boundary_pairs(self, market, oracle):
        """Set the passenger threshold to an exact realized distance, so
        some pair sits on the boundary, and require dense == scalar."""
        taxis, requests, alpha_by_taxi = market
        distances = sorted(
            d
            for t in taxis
            for r in requests
            if (d := oracle.distance(t.location, r.pickup)) > 0.0
        )
        threshold = distances[len(distances) // 2] if distances else 1.0
        config = DispatchConfig(passenger_threshold_km=threshold)
        assert_builds_identical(
            taxis, requests, oracle, config, alpha_by_taxi, "dense-boundary"
        )


class TestAsymmetricRoadNetwork:
    """RoadNetwork is the only asymmetric batch-exact oracle, so the
    (taxi, pickup) argument order of every batched consumer — and the
    scalar ``(offset_taxi + node_km) + offset_pickup`` float association
    — is only observable here.  Query points sit off-node so every snap
    offset is distinct and nonzero."""

    def setup_method(self):
        self.network = oneway_ring()
        self.config = DispatchConfig(
            passenger_threshold_km=math.inf, taxi_threshold_km=math.inf
        )
        self.taxis = [
            Taxi(TAXI_ID_BASE, Point(0.25, 0.0), seats=2),
            Taxi(TAXI_ID_BASE + 1, Point(10.0, 0.125), seats=4),
        ]
        # Request 1 needs 3 seats: the first taxi is seat-infeasible.
        self.requests = [
            PassengerRequest(0, Point(10.0, 0.5), Point(10.0, 9.5), passengers=1),
            PassengerRequest(1, Point(0.0625, 0.0), Point(0.0, 9.75), passengers=3),
        ]

    def test_table_scores_use_taxi_to_pickup_direction(self):
        taxi, request = self.taxis[0], self.requests[0]
        forward = self.network.distance(taxi.location, request.pickup)
        backward = self.network.distance(request.pickup, taxi.location)
        assert forward != backward  # the ring makes a flipped kernel visible
        scores = dense_scores(self.taxis, self.requests, self.network, self.config)
        assert scores[(0, TAXI_ID_BASE)][0] == forward

    def test_vectorized_engines_match_scalar_reference(self):
        assert_builds_identical(
            self.taxis, self.requests, self.network, self.config, None, "dense"
        )

    def test_cost_matrix_uses_taxi_to_pickup_direction(self):
        matrix = build_cost_matrix(self.taxis, self.requests, self.network)
        for j, request in enumerate(self.requests):
            for i, taxi in enumerate(self.taxis):
                if request.passengers <= taxi.seats:
                    expected = self.network.distance(taxi.location, request.pickup)
                    assert matrix[j, i] == expected
                else:
                    assert matrix[j, i] == math.inf

    def test_greedy_ranks_by_taxi_to_pickup_direction(self):
        # Taxi 1 is 10.78 km from the pickup against the ring but
        # 30.78 km along it; taxi 2 is 10.70 km along it.  Called
        # outside an engine, Greedy must rank by D(taxi, pickup).
        taxis = [Taxi(1, Point(9.5, 0.25)), Taxi(2, Point(0.25, 9.6))]
        requests = [PassengerRequest(0, Point(0.2, 0.1), Point(10.0, 9.5))]
        schedule = GreedyNearestDispatcher(self.network, self.config).dispatch(taxis, requests)
        assert schedule.taxi_of == {0: 2}

    def test_sharing_table_matches_scalar_score_functions(self):
        groups = [
            build_ride_group(gid, (request,), self.network)
            for gid, request in enumerate(self.requests)
        ]
        table = build_sharing_table(self.taxis, groups, self.network, self.config).to_table()
        # The orders the scalar score functions induce (ties by id).
        by_group: dict[int, list] = {g.group_id: [] for g in groups}
        by_taxi: dict[int, list] = {t.taxi_id: [] for t in self.taxis}
        for group in groups:
            for taxi in self.taxis:
                if group.total_passengers > taxi.seats:
                    continue
                p = group_passenger_score(taxi, group, self.network, self.config.beta)
                t = group_taxi_score(taxi, group, self.network, self.config.alpha)
                by_group[group.group_id].append((p, taxi.taxi_id))
                by_taxi[taxi.taxi_id].append((t, group.group_id))
        assert sum(map(len, by_group.values())) == 3  # every seat-feasible pair
        assert table.proposer_prefs == {
            g: tuple(t for _, t in sorted(pairs)) for g, pairs in by_group.items()
        }
        assert table.reviewer_prefs == {
            t: tuple(g for _, g in sorted(pairs)) for t, pairs in by_taxi.items()
        }
