"""Matching core: preference tables, Algorithm 1, Algorithm 2, baselines."""

from repro.matching.arrays import NO_PARTNER, UNRANKED, PreferenceArrays
from repro.matching.bipartite import (
    matching_total_cost,
    min_cost_matching,
    minimax_matching,
)
from repro.matching.brute_force import all_matchings, all_stable_matchings_brute_force
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
    enumerate_all_stable_matchings,
)
from repro.matching.hopcroft_karp import hopcroft_karp, maximum_matching_size
from repro.matching.lattice import (
    join,
    lattice_extremes,
    median_stable_matching,
    meet,
)
from repro.matching.optimality import (
    company_optimal,
    company_revenue,
    passenger_optimal,
    rank_profile,
    taxi_optimal,
    taxi_optimal_exact,
)
from repro.matching.preferences import (
    PreferenceTable,
    build_nonsharing_arrays,
    build_nonsharing_table,
    passenger_score,
    taxi_score,
)
from repro.matching.result import Matching
from repro.matching.rotations import (
    Rotation,
    all_stable_matchings_by_rotations,
    eliminate_rotation,
    exposed_rotations,
)
from repro.matching.sharding import (
    Shard,
    ShardDecomposition,
    acceptability_radii,
    frame_decomposition,
    shard_problems,
    solve_shard,
    theta_components,
)
from repro.matching.stable_marriage import (
    complete_with_dummies,
    gale_shapley,
    project_completed_matching,
)
from repro.matching.ties import (
    TiedPreferenceTable,
    build_tied_nonsharing_table,
    find_weak_blocking_pairs,
    kiraly_max_stable,
    max_weakly_stable_brute_force,
    weakly_stable,
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
    "enumerate_all_stable_matchings",
    "break_dispatch",
    "EnumerationStats",
    "passenger_optimal",
    "taxi_optimal",
    "taxi_optimal_exact",
    "company_optimal",
    "company_revenue",
    "rank_profile",
    "find_blocking_pairs",
    "is_stable",
    "assert_stable",
    "is_valid_matching",
    "all_matchings",
    "all_stable_matchings_brute_force",
    "gale_shapley",
    "complete_with_dummies",
    "project_completed_matching",
    "hopcroft_karp",
    "maximum_matching_size",
    "join",
    "meet",
    "median_stable_matching",
    "lattice_extremes",
    "Rotation",
    "exposed_rotations",
    "eliminate_rotation",
    "all_stable_matchings_by_rotations",
    "TiedPreferenceTable",
    "build_tied_nonsharing_table",
    "kiraly_max_stable",
    "weakly_stable",
    "find_weak_blocking_pairs",
    "max_weakly_stable_brute_force",
    "min_cost_matching",
    "minimax_matching",
    "matching_total_cost",
]
