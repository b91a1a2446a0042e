"""Reference implementations the tests and benchmarks compare against.

Every exact, exponential or scalar oracle lives here rather than in
``src/``: no run executes them, only the suites that certify the
runtime code do.

* :mod:`.brute_force` — all stable matchings by exhaustive filtering
  (ground truth for Algorithm 2).
* :mod:`.rotations` — Gusfield–Irving rotation enumeration, an
  independent engine for the stable lattice.
* :mod:`.stable_marriage` — textbook Gale–Shapley and Theorem 1's dummy
  completion.
* :mod:`.taxi_optimal` — Algorithm 2's taxi-best pick over the
  enumerated lattice (exact NSTD-T).
* :mod:`.preference_arrays` — the dict-table bridge, field-by-field
  equality and consistency check of ``PreferenceArrays``.
* :mod:`.hamiltonian` — the shortest Hamiltonian path (Theorem 5's
  hardness object).
* :mod:`.nonsharing_table` — the scalar non-sharing preference table
  and its pair scores.
* :mod:`.shared_route`, :mod:`.sharing`, :mod:`.packing` — the scalar
  STD route search, sharing table and pair scores, group enumeration
  and set packers.
"""

from tests.oracles.brute_force import all_matchings, all_stable_matchings_brute_force
from tests.oracles.hamiltonian import held_karp_path, shortest_hamiltonian_path
from tests.oracles.nonsharing_table import (
    build_nonsharing_table_reference,
    nonsharing_scores_reference,
)
from tests.oracles.packing import greedy_packing_reference, local_search_reference
from tests.oracles.preference_arrays import arrays_equal, arrays_from_table, validate_arrays
from tests.oracles.rotations import (
    Rotation,
    all_stable_matchings_by_rotations,
    eliminate_rotation,
    exposed_rotations,
)
from tests.oracles.shared_route import scalar_shared_route
from tests.oracles.sharing import (
    enumerate_groups_reference,
    group_passenger_score,
    group_taxi_score,
    sharing_scores_reference,
    sharing_table_reference,
)
from tests.oracles.stable_marriage import (
    complete_with_dummies,
    gale_shapley,
    project_completed_matching,
)
from tests.oracles.taxi_optimal import taxi_optimal_exact

__all__ = [
    "all_matchings",
    "all_stable_matchings_brute_force",
    "Rotation",
    "exposed_rotations",
    "eliminate_rotation",
    "all_stable_matchings_by_rotations",
    "gale_shapley",
    "complete_with_dummies",
    "project_completed_matching",
    "taxi_optimal_exact",
    "arrays_from_table",
    "arrays_equal",
    "validate_arrays",
    "shortest_hamiltonian_path",
    "held_karp_path",
    "build_nonsharing_table_reference",
    "nonsharing_scores_reference",
    "scalar_shared_route",
    "sharing_table_reference",
    "sharing_scores_reference",
    "enumerate_groups_reference",
    "group_passenger_score",
    "group_taxi_score",
    "greedy_packing_reference",
    "local_search_reference",
]
