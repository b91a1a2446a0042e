"""Matching core: preference tables, Algorithm 1, Algorithm 2, baselines."""

from repro.matching.arrays import NO_PARTNER, UNRANKED, PreferenceArrays
from repro.matching.bipartite import (
    matching_total_cost,
    min_cost_matching,
    minimax_matching,
)
from repro.matching.deferred_acceptance import (
    DeferredAcceptanceStats,
    deferred_acceptance,
    deferred_acceptance_arrays,
    deferred_acceptance_dict,
)
from repro.matching.enumeration import (
    EnumerationStats,
    all_stable_matchings,
    break_dispatch,
)
from repro.matching.hopcroft_karp import hopcroft_karp, maximum_matching_size
from repro.matching.optimality import (
    company_revenue,
    passenger_optimal,
    rank_profile,
    taxi_optimal,
)
from repro.matching.preferences import (
    PreferenceTable,
    build_nonsharing_arrays,
    build_nonsharing_table,
    passenger_score,
    taxi_score,
)
from repro.matching.result import Matching
from repro.matching.sharding import (
    Shard,
    ShardDecomposition,
    acceptability_radii,
    frame_decomposition,
    shard_problems,
    solve_shard,
    theta_components,
)
from repro.matching.verification import (
    assert_stable,
    find_blocking_pairs,
    is_stable,
    is_valid_matching,
)
from repro.matching.warm_frame import IncrementalBuildStats

__all__ = [
    "PreferenceTable",
    "PreferenceArrays",
    "UNRANKED",
    "NO_PARTNER",
    "build_nonsharing_table",
    "build_nonsharing_arrays",
    "passenger_score",
    "taxi_score",
    "Matching",
    "deferred_acceptance",
    "deferred_acceptance_dict",
    "deferred_acceptance_arrays",
    "DeferredAcceptanceStats",
    "IncrementalBuildStats",
    "Shard",
    "ShardDecomposition",
    "acceptability_radii",
    "frame_decomposition",
    "shard_problems",
    "solve_shard",
    "theta_components",
    "all_stable_matchings",
    "break_dispatch",
    "EnumerationStats",
    "passenger_optimal",
    "taxi_optimal",
    "company_revenue",
    "rank_profile",
    "find_blocking_pairs",
    "is_stable",
    "assert_stable",
    "is_valid_matching",
    "hopcroft_karp",
    "maximum_matching_size",
    "min_cost_matching",
    "minimax_matching",
    "matching_total_cost",
]
