"""Preference tables with dummy partners.

Section IV-A of the paper defines two score functions (smaller is
better):

* passenger ``r_j`` scores taxi ``t_i`` as ``D(t_i, r_j^s)``;
* driver ``t_i`` scores request ``r_j`` as
  ``D(t_i, r_j^s) − α·D(r_j^s, r_j^d)``.

Each side's preference order also contains exactly one **dummy entry**
(Theorem 1): partners scoring beyond a threshold fall *behind* the dummy
and are therefore unacceptable — proposing to them or accepting them can
never be part of a stable matching.  A taxi without enough seats and the
oversized request "are put to the end of the preference order of each
other", i.e. the pair is mutually unacceptable.

:class:`PreferenceTable` is the role-neutral structure every matching
algorithm in this package consumes: *proposers* (passenger requests, or
packed ride groups in the sharing case) and *reviewers* (taxis), each
with an ordered list of acceptable partners.  A pair appears on one
side's list iff it appears on the other's, which keeps the stability
definition symmetric.

**Construction.**  One dense pair builder,
:func:`build_nonsharing_arrays`, compiles a frame: one taxi × request
score matrix (the frame cache's, or one ``exact=True`` call into
:mod:`repro.geometry.batch`, the one module that chooses between an
oracle's exact kernel and the scalar loop), threshold masks, and a
single global lexsort per side.  :func:`build_nonsharing_table` is its
dict view (``build_nonsharing_arrays(...).to_table()``).  The dense
matrix suits the engines' frame sizes: the largest NSTD frame of the
full-scale NYC day holds about 10^5 candidate pairs.

Preference orders break score ties by id, so the result is
deterministic.  Pairs whose score would be non-finite (a disconnected
road-network pair, an infinite trip) are unacceptable.  The scalar
double loop this builder must reproduce bit for bit lives with the
test oracles (``tests/oracles/nonsharing_table.py``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import PreferenceError
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.distance import DistanceOracle
from repro.geometry.batch import oracle_paired, oracle_pairwise

if TYPE_CHECKING:  # annotation-only: repro.matching.arrays imports this module
    from repro.matching.arrays import PreferenceArrays

__all__ = [
    "PreferenceTable",
    "build_nonsharing_table",
    "build_nonsharing_arrays",
    "arrays_from_pairs",
    "passenger_score",
    "taxi_score",
]

def passenger_score(taxi: Taxi, request: PassengerRequest, oracle: DistanceOracle) -> float:
    """``D(t_i, r_j^s)``: the passenger dissatisfaction of this pairing."""
    return oracle.distance(taxi.location, request.pickup)


def taxi_score(
    taxi: Taxi, request: PassengerRequest, oracle: DistanceOracle, alpha: float
) -> float:
    """``D(t_i, r_j^s) − α·D(r_j^s, r_j^d)``: the taxi dissatisfaction."""
    return oracle.distance(taxi.location, request.pickup) - alpha * request.trip_distance(oracle)


@dataclass(frozen=True)
class PreferenceTable:
    """Mutually consistent preference lists over acceptable partners.

    Attributes
    ----------
    proposer_prefs:
        For each proposer id, the acceptable reviewer ids in strictly
        decreasing preference (best first).  The implicit dummy sits at
        the end of every list.
    reviewer_prefs:
        Symmetric structure for reviewers.
    validate:
        Whether to run the O(E) mutual-consistency check on
        construction.  On by default so hand-built tables (tests,
        notebooks) fail fast; the trusted in-package builders pass
        ``False`` because their tables are consistent by construction
        and the check would otherwise run on every simulated frame.
    """

    proposer_prefs: dict[int, tuple[int, ...]]
    reviewer_prefs: dict[int, tuple[int, ...]]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True) -> None:
        if not validate:
            return
        pairs_from_proposers = {
            (p, r) for p, prefs in self.proposer_prefs.items() for r in prefs
        }
        pairs_from_reviewers = {
            (p, r) for r, prefs in self.reviewer_prefs.items() for p in prefs
        }
        if pairs_from_proposers != pairs_from_reviewers:
            diff = pairs_from_proposers ^ pairs_from_reviewers
            raise PreferenceError(f"preference lists are not mutually consistent: {sorted(diff)[:5]}")
        for p, prefs in self.proposer_prefs.items():
            if len(set(prefs)) != len(prefs):
                raise PreferenceError(f"proposer {p} has duplicate entries")
        for r, prefs in self.reviewer_prefs.items():
            if len(set(prefs)) != len(prefs):
                raise PreferenceError(f"reviewer {r} has duplicate entries")

    # -- lookups ---------------------------------------------------------

    @property
    def proposer_ids(self) -> tuple[int, ...]:
        """Proposer ids in table insertion order."""
        return tuple(self.proposer_prefs)

    @property
    def reviewer_ids(self) -> tuple[int, ...]:
        """Reviewer ids in table insertion order."""
        return tuple(self.reviewer_prefs)

    def proposer_rank(self, proposer_id: int, reviewer_id: int) -> int | None:
        """Rank of ``reviewer_id`` in the proposer's list; ``None`` if
        unacceptable (i.e. behind the dummy)."""
        ranks = self._proposer_ranks().get(proposer_id, {})
        return ranks.get(reviewer_id)

    def reviewer_rank(self, reviewer_id: int, proposer_id: int) -> int | None:
        """Rank of ``proposer_id`` in the reviewer's list; ``None`` if
        unacceptable."""
        ranks = self._reviewer_ranks().get(reviewer_id, {})
        return ranks.get(proposer_id)

    def mutually_acceptable(self, proposer_id: int, reviewer_id: int) -> bool:
        """Whether each side lists the other (dummy beaten both ways)."""
        return self.proposer_rank(proposer_id, reviewer_id) is not None

    def proposer_prefers(self, proposer_id: int, reviewer_a: int, reviewer_b: int) -> bool:
        """Whether the proposer strictly prefers ``reviewer_a`` over ``reviewer_b``."""
        rank_a = self.proposer_rank(proposer_id, reviewer_a)
        rank_b = self.proposer_rank(proposer_id, reviewer_b)
        if rank_a is None:
            return False
        if rank_b is None:
            return True
        return rank_a < rank_b

    def reviewer_prefers(self, reviewer_id: int, proposer_a: int, proposer_b: int) -> bool:
        """Whether the reviewer strictly prefers ``proposer_a`` over
        ``proposer_b`` (an unlisted proposer never wins)."""
        rank_a = self.reviewer_rank(reviewer_id, proposer_a)
        rank_b = self.reviewer_rank(reviewer_id, proposer_b)
        if rank_a is None:
            return False
        if rank_b is None:
            return True
        return rank_a < rank_b

    def reversed(self) -> "PreferenceTable":
        """The same market with roles swapped (taxis propose).

        Used for the taxi-optimal fast path: deferred acceptance on the
        reversed table is reviewer-optimal for the original table.  The
        reversed table is consistent by construction (no re-validation)
        and inherits this table's rank caches with roles swapped instead
        of recomputing them.
        """
        table = PreferenceTable(
            proposer_prefs=dict(self.reviewer_prefs),
            reviewer_prefs=dict(self.proposer_prefs),
            validate=False,
        )
        object.__setattr__(table, "_proposer_rank_cache", self._reviewer_ranks())
        object.__setattr__(table, "_reviewer_rank_cache", self._proposer_ranks())
        return table

    # Rank maps are derived lazily and cached on the instance; the table
    # itself is frozen so the caches are stored via object.__setattr__.

    def _proposer_ranks(self) -> dict[int, dict[int, int]]:
        cached = getattr(self, "_proposer_rank_cache", None)
        if cached is None:
            cached = {
                p: {r: k for k, r in enumerate(prefs)} for p, prefs in self.proposer_prefs.items()
            }
            object.__setattr__(self, "_proposer_rank_cache", cached)
        return cached

    def _reviewer_ranks(self) -> dict[int, dict[int, int]]:
        cached = getattr(self, "_reviewer_rank_cache", None)
        if cached is None:
            cached = {
                r: {p: k for k, p in enumerate(prefs)} for r, prefs in self.reviewer_prefs.items()
            }
            object.__setattr__(self, "_reviewer_rank_cache", cached)
        return cached


def build_nonsharing_table(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    alpha_by_taxi: Mapping[int, float] | None = None,
    pickup_matrix: np.ndarray | None = None,
    trip_km: np.ndarray | None = None,
) -> PreferenceTable:
    """The paper's non-sharing preference orders (Section IV-A).

    Requests are proposers, taxis are reviewers.  A pair is kept (i.e.
    acceptable to both) when

    * the taxi has enough seats for the whole party,
    * the pickup distance is within ``config.passenger_threshold_km``,
    * the driver score is within ``config.taxi_threshold_km``, and
    * both scores are finite.

    Orders are deterministic: ties in score break by partner id.

    ``alpha_by_taxi`` optionally assigns each driver a personal fare
    coefficient (missing ids fall back to ``config.alpha``).  This is an
    extension beyond the paper: with one shared α the two sides' scores
    for a pair differ only by a request-side term, every trading cycle's
    inequalities cancel, and the stable matching is **unique** (so
    NSTD-P ≡ NSTD-T).  Heterogeneous drivers break that alignment and
    make the stable lattice — and the company's Algorithm-2 choice —
    meaningful.

    ``pickup_matrix`` / ``trip_km`` optionally inject frame-cached
    distance kernels (the taxi-major ``D(t_i, r_j^s)`` matrix and the
    per-request trip vector; see
    :class:`repro.simulation.FrameDistanceCache`).  The matrix *is* the
    dense kernel output, and the caller is responsible for its values
    being bit-identical to scalar ``distance`` calls (true for every
    cache in this package, which computes with ``exact=True`` kernels).

    The table is :func:`build_nonsharing_arrays`' market unpacked into
    dicts, in ``requests`` / ``taxis`` order.
    """
    return build_nonsharing_arrays(
        taxis,
        requests,
        oracle,
        config,
        alpha_by_taxi=alpha_by_taxi,
        pickup_matrix=pickup_matrix,
        trip_km=trip_km,
    ).to_table()


def build_nonsharing_arrays(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig | None = None,
    *,
    alpha_by_taxi: Mapping[int, float] | None = None,
    pickup_matrix: np.ndarray | None = None,
    trip_km: np.ndarray | None = None,
) -> "PreferenceArrays":
    """The market of :func:`build_nonsharing_table` as
    :class:`~repro.matching.arrays.PreferenceArrays`: the one builder
    behind both.

    The dense pair builder feeds two lexsorts and a handful of
    scatters, and **no intermediate Python dict or tuple is
    materialized** — proposer index ``j`` is position ``j`` in
    ``requests``, reviewer index ``i`` is position ``i`` in ``taxis``.
    Acceptability, ``alpha_by_taxi`` and ``pickup_matrix``/``trip_km``
    behave as documented on :func:`build_nonsharing_table`.
    """
    config = config if config is not None else DispatchConfig()
    alphas = _checked_alphas(taxis, requests, config, alpha_by_taxi)
    rj, ti, pick, driver = _dense_pairs(
        taxis, requests, oracle, config, alphas, pickup_matrix, trip_km
    )
    return arrays_from_pairs(
        np.array([r.request_id for r in requests], dtype=np.int64),
        np.array([t.taxi_id for t in taxis], dtype=np.int64),
        rj=rj,
        ti=ti,
        pick=pick,
        driver=driver,
    )


def arrays_from_pairs(
    request_ids: np.ndarray,
    taxi_ids: np.ndarray,
    *,
    rj: np.ndarray,
    ti: np.ndarray,
    pick: np.ndarray,
    driver: np.ndarray,
) -> "PreferenceArrays":
    """Pack flat acceptable-pair arrays into :class:`PreferenceArrays`.

    ``request_ids`` / ``taxi_ids`` are the ``int64`` proposer / reviewer
    ids (requests and taxis here, ride groups and taxis in the sharing
    market); ``rj`` / ``ti`` are *positions* into them and ``pick`` /
    ``driver`` the proposer's and the reviewer's score of each pair, in
    any order.  This is the CSR tail of :func:`build_nonsharing_arrays`
    and of the sharing table; any builder that produces its edge list
    differently but ranks and packs it through this one function is
    bit-identical to the cold one (same lexsort keys, same tie-breaks,
    same dense-matrix scatters).
    """
    from repro.matching.arrays import PreferenceArrays, UNRANKED  # deferred: avoids cycle

    n_requests, n_taxis = len(request_ids), len(taxi_ids)
    n_pairs = len(rj)

    # Proposer-side CSR: one global lexsort groups edges by request (in
    # input position order) with each segment sorted by (score, taxi id),
    # reproducing the reference's per-list sorted().
    proposer_order = np.lexsort((taxi_ids[ti], pick, rj))
    p_owner = rj[proposer_order]
    proposer_list = ti[proposer_order].astype(np.int32)
    p_indptr = np.zeros(n_requests + 1, dtype=np.int64)
    np.cumsum(np.bincount(rj, minlength=n_requests), out=p_indptr[1:])
    p_within = (np.arange(n_pairs, dtype=np.int64) - p_indptr[p_owner]).astype(np.int32)
    proposer_rank = np.full((n_requests, n_taxis), UNRANKED, dtype=np.int32)
    proposer_rank[p_owner, proposer_list] = p_within

    # Reviewer-side mirror.
    reviewer_order = np.lexsort((request_ids[rj], driver, ti))
    r_owner = ti[reviewer_order]
    reviewer_list = rj[reviewer_order].astype(np.int32)
    r_indptr = np.zeros(n_taxis + 1, dtype=np.int64)
    np.cumsum(np.bincount(ti, minlength=n_taxis), out=r_indptr[1:])
    r_within = (np.arange(n_pairs, dtype=np.int64) - r_indptr[r_owner]).astype(np.int32)
    reviewer_rank = np.full((n_taxis, n_requests), UNRANKED, dtype=np.int32)
    reviewer_rank[r_owner, reviewer_list] = r_within

    # Per-edge cross ranks: scatter each side's within-segment rank back
    # to original pair positions, then gather in the other side's order.
    rank_in_reviewer = np.empty(n_pairs, dtype=np.int32)
    rank_in_reviewer[reviewer_order] = r_within
    rank_in_proposer = np.empty(n_pairs, dtype=np.int32)
    rank_in_proposer[proposer_order] = p_within
    return PreferenceArrays(
        proposer_ids=request_ids,
        reviewer_ids=taxi_ids,
        proposer_indptr=p_indptr,
        proposer_list=proposer_list,
        proposer_list_rank=rank_in_reviewer[proposer_order],
        reviewer_indptr=r_indptr,
        reviewer_list=reviewer_list,
        reviewer_list_rank=rank_in_proposer[reviewer_order],
        proposer_rank=proposer_rank,
        reviewer_rank=reviewer_rank,
    )


def _checked_alphas(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    config: DispatchConfig,
    alpha_by_taxi: Mapping[int, float] | None,
) -> dict[int, float]:
    _check_unique_ids(taxis, requests)
    alphas = {
        taxi.taxi_id: (alpha_by_taxi or {}).get(taxi.taxi_id, config.alpha) for taxi in taxis
    }
    for taxi_id, alpha in alphas.items():
        if alpha < 0.0:
            raise PreferenceError(f"taxi {taxi_id} has negative alpha {alpha}")
    return alphas


def _dense_pairs(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    alphas: Mapping[int, float],
    pickup_matrix: np.ndarray | None,
    trip_km: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The acceptable candidate pairs of one frame, as flat arrays.

    Returns ``(rj, ti, pick, driver)``: request/taxi *positions* (into
    the given sequences) of every mutually acceptable pair plus both
    scores, in no particular order: the front half of
    :func:`build_nonsharing_arrays`.
    """
    n_requests = len(requests)
    n_taxis = len(taxis)
    empty_idx = np.empty(0, dtype=np.intp)
    empty_f = np.empty(0, dtype=np.float64)

    if n_requests == 0 or n_taxis == 0:
        return empty_idx, empty_idx, empty_f, empty_f

    seats = np.array([t.seats for t in taxis], dtype=np.int64)
    party = np.array([r.passengers for r in requests], dtype=np.int64)
    alpha_arr = np.array([alphas[t.taxi_id] for t in taxis], dtype=np.float64)
    pickups = [r.pickup for r in requests]
    # ``exact=True``: only kernels honouring the bit-exactness contract
    # may replace scalar ``distance`` calls, so the scores match the
    # reference bit for bit (see :mod:`repro.geometry.batch`).
    if trip_km is not None:
        trip = np.asarray(trip_km, dtype=np.float64)
        if trip.shape != (n_requests,):
            raise PreferenceError(f"trip_km has shape {trip.shape}, expected ({n_requests},)")
    else:
        trip = oracle_paired(
            oracle, sources=pickups, targets=[r.dropoff for r in requests], exact=True
        )

    # Taxi-major matrix so rows/sources are taxi locations, matching the
    # scalar ``distance(taxi.location, request.pickup)`` order — the
    # order matters for asymmetric oracles (oneway road edges).
    if pickup_matrix is not None:
        pick_matrix = np.asarray(pickup_matrix, dtype=np.float64)
        if pick_matrix.shape != (n_taxis, n_requests):
            raise PreferenceError(
                f"pickup_matrix has shape {pick_matrix.shape}, "
                f"expected ({n_taxis}, {n_requests})"
            )
    else:
        pick_matrix = oracle_pairwise(
            oracle, sources=[t.location for t in taxis], targets=pickups, exact=True
        )
    # Staged masking: the cheap threshold compare first (it rejects NaN
    # too), then every remaining acceptability condition only on the
    # surviving pairs.
    flat = np.flatnonzero(pick_matrix <= config.passenger_threshold_km)
    ti, rj = np.divmod(flat, n_requests)
    pick = pick_matrix.ravel()[flat]

    driver = pick - alpha_arr[ti] * trip[rj]
    ok = (
        (party[rj] <= seats[ti])
        & np.isfinite(pick)
        & np.isfinite(driver)
        & (driver <= config.taxi_threshold_km)
    )
    return rj[ok], ti[ok], pick[ok], driver[ok]


def _check_unique_ids(taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]) -> None:
    taxi_ids = [t.taxi_id for t in taxis]
    request_ids = [r.request_id for r in requests]
    if len(set(taxi_ids)) != len(taxi_ids):
        raise PreferenceError("duplicate taxi ids")
    if len(set(request_ids)) != len(request_ids):
        raise PreferenceError("duplicate request ids")
