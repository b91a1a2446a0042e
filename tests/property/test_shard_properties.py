"""Property tests: the zone-sharded streaming solve is the global DA, always.

Hypothesis drives frames built from *adversarial geometries* for the
θ-ball decomposition — candidate pairs sitting exactly on the θ and 2θ
acceptability boundaries, duplicated coordinates (many entities in one
grid cell), one giant connected component, widely separated singleton
clusters, and empty sides — and checks the three properties the
streaming matcher's exactness rests on:

* every mutually acceptable pair of the scalar reference builder lies
  inside one :func:`~repro.streaming.zones.plan_epoch_zones` solve
  group, at the derived zone size and at sizes that over-fragment the
  cell graph or merge it into one group (the supergraph argument);
* a :class:`~repro.streaming.matcher.ZoneMatcher` run over two epochs —
  the survivors of the first epoch (same objects, so carried warm
  states resume) plus new arrivals — returns the global cold
  :func:`~repro.matching.sharding.solve_shard` matching on each epoch;
* permuting the input order of taxis and requests never changes the
  matched pairs (the decomposition labels permute with the entities;
  preference ties break on global ids, not positions).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.geometry import EuclideanDistance, Point
from repro.geometry.batch import oracle_paired
from repro.matching import acceptability_radii, solve_shard
from repro.matching.sharding import default_cell_km
from repro.streaming import ZoneMatcher, plan_epoch_zones
from tests.oracles import build_nonsharing_table_reference

ORACLE = EuclideanDistance()

# Unthresholded, and two θ / 2θ operating points whose integer
# thresholds sit on exact integer-grid distances, so generated pairs
# regularly land exactly on the acceptability boundary.
CONFIGS = (
    DispatchConfig(),
    DispatchConfig(passenger_threshold_km=2.0, taxi_threshold_km=4.0),
    DispatchConfig(passenger_threshold_km=1.0, taxi_threshold_km=2.0),
)

# None derives the zone edge from the median radius, as the matcher
# does; 0.25 over-fragments the cell graph; 1000.0 merges everything
# into one group (the global solve itself) — every acceptable pair must
# stay inside one group at every granularity.
ZONE_SIZES = (None, 0.25, 1.0, 1000.0)

GEOMETRIES = ("giant", "singletons", "boundary", "duplicates", "mixed")


def _points(rng: np.random.Generator, n: int, geometry: str) -> list[Point]:
    """``n`` points in one of the adversarial layouts."""
    if geometry == "giant":
        # One dense blob: a single θ-ball component.
        xy = rng.integers(-2, 3, size=(n, 2))
    elif geometry == "singletons":
        # Clusters far beyond any radius: mostly one-entity shards.
        centers = rng.integers(0, max(n, 1), size=n) * 1000
        xy = np.stack([centers, rng.integers(-1, 2, size=n)], axis=1)
    elif geometry == "boundary":
        # Points on a 1-km lattice line: with the θ=1, 2θ=2 configs the
        # pair distances hit the thresholds exactly.
        xy = np.stack([rng.integers(0, 6, size=n), np.zeros(n, dtype=np.int64)], axis=1)
    elif geometry == "duplicates":
        # Coordinates drawn from two cells only: heavy duplication.
        xy = rng.integers(0, 2, size=(n, 2)) * 3
    else:  # mixed integer grid
        xy = rng.integers(-6, 7, size=(n, 2))
    return [Point(float(x), float(y)) for x, y in xy.tolist()]


def _frame(
    rng: np.random.Generator,
    geometry: str,
    n_taxis: int,
    n_requests: int,
    *,
    first_id: int = 0,
) -> tuple[list[Taxi], list[PassengerRequest]]:
    taxis = [
        Taxi(first_id + tid, p) for tid, p in enumerate(_points(rng, n_taxis, geometry))
    ]
    pickups = _points(rng, n_requests, geometry)
    dropoffs = _points(rng, n_requests, geometry)
    requests = [
        PassengerRequest(first_id + 100 + rid, pickup, dropoff)
        for rid, (pickup, dropoff) in enumerate(zip(pickups, dropoffs))
    ]
    return taxis, requests


def _xy(points: list[Point]) -> np.ndarray:
    return np.array([[p.x, p.y] for p in points], dtype=np.float64).reshape(-1, 2)


def _global_pairs(taxis, requests, config) -> dict[int, int]:
    """The global cold NSTD-P solve, empty when either side is."""
    if not taxis or not requests:
        return {}
    trip = oracle_paired(
        ORACLE,
        sources=[r.pickup for r in requests],
        targets=[r.dropoff for r in requests],
        exact=True,
    )
    return dict(solve_shard(taxis, requests, ORACLE, config, trip_km=trip).pairs)


def _epoch(matcher: ZoneMatcher, taxis, requests) -> dict[int, int]:
    return matcher.match_epoch(
        taxis,
        requests,
        trip_km=oracle_paired(
            ORACLE,
            sources=[r.pickup for r in requests],
            targets=[r.dropoff for r in requests],
            exact=True,
        ),
    ).pairs


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    geometry=st.sampled_from(GEOMETRIES),
    n_taxis=st.integers(min_value=1, max_value=9),
    n_requests=st.integers(min_value=1, max_value=9),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
    zone_index=st.integers(min_value=0, max_value=len(ZONE_SIZES) - 1),
)
def test_acceptable_pairs_lie_inside_one_zone_group(
    seed, geometry, n_taxis, n_requests, config_index, zone_index
):
    config = CONFIGS[config_index]
    taxis, requests = _frame(np.random.default_rng(seed), geometry, n_taxis, n_requests)
    trip = oracle_paired(
        ORACLE,
        sources=[r.pickup for r in requests],
        targets=[r.dropoff for r in requests],
        exact=True,
    )
    alpha_max = float(config.alpha)
    zone_km = ZONE_SIZES[zone_index]
    if zone_km is None:
        zone_km = default_cell_km(acceptability_radii(trip, config, alpha_max=alpha_max))
    plan = plan_epoch_zones(
        _xy([t.location for t in taxis]),
        _xy([r.pickup for r in requests]),
        trip,
        np.array([r.request_id for r in requests], dtype=np.int64),
        ORACLE,
        config,
        alpha_max=alpha_max,
        zone_km=zone_km,
    )
    taxi_group: dict[int, int] = {}
    request_group: dict[int, int] = {}
    for index, group in enumerate(plan.groups):
        for row in group.taxi_rows.tolist():
            assert taxis[row].taxi_id not in taxi_group
            taxi_group[taxis[row].taxi_id] = index
        for row in group.request_rows.tolist():
            assert requests[row].request_id not in request_group
            request_group[requests[row].request_id] = index

    table = build_nonsharing_table_reference(taxis, requests, ORACLE, config)
    for request_id, taxi_ids in table.proposer_prefs.items():
        for taxi_id in taxi_ids:
            assert request_id in request_group and taxi_id in taxi_group
            assert request_group[request_id] == taxi_group[taxi_id]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    geometry=st.sampled_from(GEOMETRIES),
    n_taxis=st.integers(min_value=0, max_value=9),
    n_requests=st.integers(min_value=0, max_value=9),
    n_new_taxis=st.integers(min_value=0, max_value=4),
    n_new_requests=st.integers(min_value=0, max_value=4),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_sharded_identical_to_global_da(
    seed, geometry, n_taxis, n_requests, n_new_taxis, n_new_requests, config_index
):
    """Two epochs through one matcher, each equal to the global cold
    solve: the second epoch resumes the first's carried states on the
    surviving objects, so warm groups are checked as well as cold."""
    config = CONFIGS[config_index]
    rng = np.random.default_rng(seed)
    taxis, requests = _frame(rng, geometry, n_taxis, n_requests)
    matcher = ZoneMatcher(ORACLE, config)

    first = _epoch(matcher, taxis, requests)
    assert first == _global_pairs(taxis, requests, config)

    new_taxis, new_requests = _frame(
        rng, geometry, n_new_taxis, n_new_requests, first_id=1000
    )
    matched_taxis = set(first.values())
    kept_taxis = [t for t in taxis if t.taxi_id not in matched_taxis]
    kept_requests = [r for r in requests if r.request_id not in first]
    taxis2 = kept_taxis + new_taxis
    requests2 = kept_requests + new_requests
    taxis2 = [taxis2[i] for i in rng.permutation(len(taxis2)).tolist()]
    requests2 = [requests2[j] for j in rng.permutation(len(requests2)).tolist()]

    second = _epoch(matcher, taxis2, requests2)
    assert second == _global_pairs(taxis2, requests2, config)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    geometry=st.sampled_from(GEOMETRIES),
    n_taxis=st.integers(min_value=1, max_value=8),
    n_requests=st.integers(min_value=1, max_value=8),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_sharded_deterministic_under_permutation(
    seed, geometry, n_taxis, n_requests, config_index
):
    config = CONFIGS[config_index]
    rng = np.random.default_rng(seed)
    taxis, requests = _frame(rng, geometry, n_taxis, n_requests)

    reference = _epoch(ZoneMatcher(ORACLE, config), taxis, requests)
    shuffled_taxis = [taxis[i] for i in rng.permutation(len(taxis)).tolist()]
    shuffled_requests = [requests[j] for j in rng.permutation(len(requests)).tolist()]
    permuted = _epoch(ZoneMatcher(ORACLE, config), shuffled_taxis, shuffled_requests)
    assert permuted == reference
