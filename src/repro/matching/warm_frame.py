"""The warm frame solver: churn strips, fused facts, keyed GS rounds.

The one warm solver: each frame solves only the edges its churn
touched, in one allocation-lean path for the engines' frame cadence.
Two facts about the engines make this exact:

**Stability theorem (edge turnover).**  In a stable matching with
dummies, an unmatched proposer and an unmatched reviewer cannot be
mutually acceptable — they would form a blocking pair (both prefer any
listed partner to the dummy).  The engine departs every matched pair
together (the taxi drives off with its passenger), so the entities two
consecutive frames share are exactly the *unmatched* ones, and none of
them moved.  Hence the retained × retained block of the new frame
contains **no acceptable pair**, and the new frame's entire edge set
lives on two churn strips: ``new taxis × all requests`` and
``retained taxis × new requests``.

**Degeneracy lemma (resume ≡ cold).**  At termination of deferred
acceptance, an unmatched proposer has exhausted its acceptable list and
every reviewer on it holds someone (a reviewer refuses only while
holding a suitor it prefers) — so all of them matched and departed.  An
unmatched reviewer never received a proposal.  Resuming the previous
frame's solver state on the new instance therefore starts with every
cursor at the top of an entirely fresh preference row, no held pairs,
and every proposer free: the resume *is* a cold Gale–Shapley run on the
new arrays.  (:func:`repro.matching.incremental.resume_deferred_acceptance`
proves the general case and validates these preconditions one by one;
here they hold by construction, so the solve runs fresh rounds.)

What the warm path then saves per frame:

* the full ``taxis × requests`` pickup kernel and acceptability masks —
  only the churn strips are scored;
* every per-frame Python attribute walk over the queue: entity facts
  ride across frames as two fused matrices (``(R, 4)`` request
  ``x, y, party, trip`` and ``(T, 4)`` taxi ``x, y, seats, α``), so a
  frame's retained-entity gather is one fancy-index per side and
  per-frame Python-object work is proportional to the churn;
* the reviewer-side preference structure.  Deferred acceptance only
  ever *walks* the proposer lists; reviewer lists are consulted solely
  to compare two suitors.  The solver packs just the proposer CSR (one
  ``np.lexsort`` by proposer row, then score, then partner id — the
  cold pack's total ``(row, score, id)`` key, unique per edge, so the
  CSR is bit-identical whatever order the strips were emitted in) and
  replaces reviewer ranks with one complex128 key per edge,
  ``reviewer_score + 1j·proposer_id``.  NumPy orders complex values
  lexicographically, so a single ``np.minimum`` reduction picks exactly
  the suitor the reviewer's ``(score, id)``-sorted list ranks best —
  the same winner, round for round, as the rank engine.  Ids ride in
  the imaginary float64 lane, exact below 2^53; larger ids raise
  :class:`~repro.core.errors.WarmStartError` and the frame re-runs
  cold.  Party and seat counts share the same float-exact bound.

Each matched pair's pickup and trip leg lengths are read straight out
of the frame's edge arrays and returned with the matching, so the
dispatcher can ship a packed schedule without re-deriving either
distance.

Entity identity is what makes misclassification impossible rather than
merely unlikely: an entity is *retained* only if the **same live
object** (CPython address, kept alive by the state holding a reference)
is presented again, and the address index holds only the entities the
previous matching left *unmatched* — a matched entity that reappears is
simply not found and re-enters as new.  The engines re-present queued
request objects verbatim, and taxi agents memoize their snapshot on the
location object, so an unmoved idle taxi presents the same frozen
``Taxi`` each frame.  Both entity types are frozen dataclasses, so a
held address proves every field is unchanged.  The check only ever errs
toward *new*, which is always sound: a caller that rebuilds equal
objects each frame merely reclassifies them as new and rebuilds their
strip rows, while the acceptability masks discard the retained ×
retained entries the theorem proves empty.

Any violated precondition raises
:class:`~repro.core.errors.WarmStartError`; the dispatcher redoes the
frame cold (and re-seeds), so a warm run can never produce a frame the
cold path would not.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import WarmStartError
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.batch import (
    as_point_array,
    batch_kernels_exact,
    oracle_paired,
    oracle_pairwise,
)
from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point
from repro.matching.arrays import NO_PARTNER
from repro.matching.result import Matching

__all__ = [
    "FrameSolveState",
    "IncrementalBuildStats",
    "frame_state_from_cold",
    "request_trips",
    "warm_frame_solve",
]

#: Column layout of the fused per-request fact matrix.
_RX, _RY, _RPARTY, _RTRIP = 0, 1, 2, 3
#: Column layout of the fused per-taxi fact matrix.
_TX, _TY, _TSEATS, _TALPHA = 0, 1, 2, 3

#: Ids and counts carried in float64 lanes must stay integer-exact.
_FLOAT_EXACT = float(1 << 53)


@dataclass(frozen=True, slots=True)
class IncrementalBuildStats:
    """Accounting for one warm frame's preference build.

    ``pairs_scored`` counts the candidate pairs whose distances were
    actually computed this frame; ``full_pairs`` is what a cold build
    would have scored.  Their ratio is the frame's *rebuild fraction* —
    1.0 means the warm build saved nothing, 0.0 means a fully static
    frame.
    """

    n_taxis: int
    n_requests: int
    retained_taxis: int
    retained_requests: int
    pairs_scored: int
    full_pairs: int

    @property
    def rebuild_fraction(self) -> float:
        """Fraction of the dense pair block actually scored this frame
        (``pairs_scored / full_pairs``; 0.0 on an empty frame) — the
        ``warm_rebuild_fraction`` telemetry field."""
        if self.full_pairs == 0:
            return 0.0
        return self.pairs_scored / self.full_pairs


@dataclass(slots=True)
class FrameSolveState:
    """Frame-to-frame solver state carried by a warm-started dispatcher.

    Request-side arrays are aligned with the previous frame's queue
    order and taxi-side arrays with its fleet order.  ``req_objs`` /
    ``taxi_objs`` pin the frame's objects alive so the CPython addresses
    in the sorted address arrays stay unambiguous: a *new* object in the
    next frame can never alias a held address.  The address index covers
    only the entities the previous matching left *unmatched* —
    membership in it is the whole retained test.
    """

    req_ids: np.ndarray
    """``(R,)`` int64 request ids, in the previous frame's queue order."""
    req_addr_sorted: np.ndarray
    """Sorted uint64 addresses of the previously *unmatched* requests."""
    req_addr_rows: np.ndarray
    """Previous-frame row of each ``req_addr_sorted`` entry."""
    req_objs: list[PassengerRequest]
    """The previous queue, pinned so addresses stay live and unique."""
    rfacts: np.ndarray
    """``(R, 4)`` float64: pickup x, pickup y, party, trip km."""
    taxi_ids: np.ndarray
    """``(T,)`` int64 taxi ids, in the previous frame's fleet order."""
    taxi_addr_sorted: np.ndarray
    """Sorted uint64 addresses of the previously *unmatched* taxis."""
    taxi_addr_rows: np.ndarray
    """Previous-frame row of each ``taxi_addr_sorted`` entry."""
    taxi_objs: list[Taxi]
    """The previous idle fleet, pinned so addresses stay live and unique."""
    tfacts: np.ndarray
    """``(T, 4)`` float64: x, y, seats, α."""
    ids_bound: float
    """Upper bound on ``max |id|`` over every entity the state has seen.

    Conservative and monotone (departed entities keep contributing), so
    one scalar comparison per frame replaces the full-array float-exact
    scan; a cold reseed recomputes it exactly.
    """
    counts_bound: float
    """Same bound for party sizes and seat counts."""
    facts_finite: bool
    """Every trip and α the state has seen was finite (conservative —
    enables the lean strip masks; never affects correctness)."""


def request_trips(
    requests: Sequence[PassengerRequest], oracle: DistanceOracle
) -> np.ndarray:
    """Per-request pickup→dropoff distances, bit-identical to the scalar
    oracle (the same exactness contract the frame cache relies on)."""
    if not requests:
        return np.empty(0, dtype=np.float64)
    if batch_kernels_exact(oracle):
        return np.asarray(
            oracle.paired(
                sources=as_point_array([r.pickup for r in requests]),
                targets=as_point_array([r.dropoff for r in requests]),
            ),
            dtype=np.float64,
        )
    return oracle_paired(
        oracle,
        sources=[r.pickup for r in requests],
        targets=[r.dropoff for r in requests],
        exact=True,
    )


def _pickup_strip(
    oracle: DistanceOracle,
    taxi_xy: np.ndarray,
    taxi_points: Callable[[], list[Point]],
    pick_xy: np.ndarray,
    pick_points: Callable[[], list[Point]],
) -> np.ndarray:
    """``D(taxi, pickup)`` over one churn strip, exact-kernel fast path.

    The point lists are thunks: on the exact-kernel path (every built-in
    oracle the engine runs) the packed coordinate arrays feed the kernel
    directly and no per-entity Python loop runs at all.
    """
    if batch_kernels_exact(oracle):
        return np.asarray(oracle.pairwise(sources=taxi_xy, targets=pick_xy), dtype=np.float64)
    return oracle_pairwise(oracle, sources=taxi_points(), targets=pick_points(), exact=True)


def _sorted_member_rows(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(found_mask, positions)`` of each key inside a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), dtype=np.intp)
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return sorted_keys[pos] == keys, pos


def _addrs_of(objs: Sequence[object]) -> np.ndarray:
    """CPython addresses of ``objs`` (``map`` keeps the loop in C)."""
    return np.fromiter(map(id, objs), dtype=np.uint64, count=len(objs))


def _taxi_fact_row(
    taxi: Taxi, config: DispatchConfig, alpha_by_taxi: Mapping[int, float] | None
) -> tuple[float, float, float, float]:
    alpha = float(
        config.alpha if alpha_by_taxi is None else alpha_by_taxi.get(taxi.taxi_id, config.alpha)
    )
    return (taxi.location.x, taxi.location.y, float(taxi.seats), alpha)


def _abs_max(values: np.ndarray) -> float:
    """``max |values|`` as a float, 0 for an empty array."""
    return float(np.abs(values).max()) if values.size else 0.0


def _unmatched_addr_index(
    addrs: np.ndarray, matched_rows: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted unmatched addresses, their frame rows)`` for one side."""
    keep = np.ones(n, dtype=bool)
    keep[matched_rows] = False
    rows = np.flatnonzero(keep)
    # Addresses are unique among live objects, so the unstable default
    # sort yields the same permutation as a stable one, faster.
    rows = rows[np.argsort(addrs[rows])]
    return addrs[rows], rows


def _rows_of_ids(ids: np.ndarray, wanted: Sequence[int]) -> np.ndarray:
    """Frame rows of ``wanted`` ids (each id must occur in ``ids``)."""
    if not len(wanted):
        return np.empty(0, dtype=np.intp)
    wanted_arr = np.fromiter(map(int, wanted), dtype=np.int64, count=len(wanted))
    order = np.argsort(ids, kind="stable")
    return np.asarray(order[np.searchsorted(ids[order], wanted_arr)], dtype=np.intp)


def frame_state_from_cold(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    matching: Matching,
    *,
    trip: np.ndarray,
    config: DispatchConfig,
    alpha_by_taxi: Mapping[int, float] | None = None,
) -> FrameSolveState:
    """Seed warm state from a cold frame's inputs and solved matching.

    ``matching`` maps request id → taxi id (both NSTD orientations after
    the dispatcher's flip); ``trip`` is the frame's per-request trip
    vector in queue order (the cold path computes it anyway).
    ``config`` and ``alpha_by_taxi`` must be the ones the next
    :func:`warm_frame_solve` receives: each taxi's α is carried in the
    state's fact matrix.

    The returned state pins every ``taxis`` / ``requests`` object alive
    (so CPython addresses stay unambiguous), indexes only the unmatched
    entities' addresses (a matched entity re-presented later is treated
    as *new*), and carries the per-entity facts aligned to this frame's
    order.  Never raises: any id problem was already rejected by the
    cold solve that produced ``matching``.
    """
    n_requests = len(requests)
    n_taxis = len(taxis)
    req_ids = np.fromiter((r.request_id for r in requests), dtype=np.int64, count=n_requests)
    taxi_ids = np.fromiter((t.taxi_id for t in taxis), dtype=np.int64, count=n_taxis)
    req_addr_sorted, req_addr_rows = _unmatched_addr_index(
        _addrs_of(requests), _rows_of_ids(req_ids, [p for p, _ in matching.pairs]), n_requests
    )
    taxi_addr_sorted, taxi_addr_rows = _unmatched_addr_index(
        _addrs_of(taxis), _rows_of_ids(taxi_ids, [t for _, t in matching.pairs]), n_taxis
    )
    rfacts = np.empty((n_requests, 4), dtype=np.float64)
    rfacts[:, _RX : _RY + 1] = as_point_array([r.pickup for r in requests], check_finite=False)
    rfacts[:, _RPARTY] = np.fromiter(
        (r.passengers for r in requests), dtype=np.int64, count=n_requests
    )
    rfacts[:, _RTRIP] = np.asarray(trip, dtype=np.float64)
    tfacts = np.array(
        [_taxi_fact_row(t, config, alpha_by_taxi) for t in taxis], dtype=np.float64
    ).reshape(n_taxis, 4)
    facts_finite = bool(np.isfinite(rfacts[:, _RTRIP]).all()) and bool(
        np.isfinite(tfacts[:, _TALPHA]).all()
    )
    return FrameSolveState(
        req_ids=req_ids,
        req_addr_sorted=req_addr_sorted,
        req_addr_rows=req_addr_rows,
        req_objs=list(requests),
        rfacts=rfacts,
        taxi_ids=taxi_ids,
        taxi_addr_sorted=taxi_addr_sorted,
        taxi_addr_rows=taxi_addr_rows,
        taxi_objs=list(taxis),
        tfacts=tfacts,
        ids_bound=max(_abs_max(req_ids), _abs_max(taxi_ids)),
        counts_bound=max(_abs_max(rfacts[:, _RPARTY]), _abs_max(tfacts[:, _TSEATS])),
        facts_finite=facts_finite,
    )


def _gs_rounds_keyed(
    indptr: np.ndarray, pref: np.ndarray, keys: np.ndarray, n_reviewers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Gale–Shapley rounds on complex suitor keys.

    The same round structure as
    :func:`~repro.matching.deferred_acceptance.gale_shapley_rounds`,
    with the per-reviewer rank reduction replaced by a lexicographic
    ``np.minimum`` over ``score + 1j·proposer_id`` keys.  Within one
    round each reviewer accepts the incoming suitor with the smallest
    key — exactly the best-ranked suitor of the rank engine, since the
    reviewer's rank order *is* ascending ``(score, id)``.  Equal key
    sets traverse equal rounds, so the matching is bit-identical; the
    proposal/refusal counters the rank engine reports are not
    maintained (warm frames never consume them).

    Returns ``(partner, next_choice)``.  A proposer stops proposing the
    moment it is accepted and only resumes when displaced, so for every
    proposer matched at termination ``next_choice[p] - 1`` is the packed
    index of its *accepted* edge — the egress reads the matched pair's
    already-computed leg lengths straight out of the edge arrays.
    """
    next_choice = indptr[:-1].copy()
    ends = indptr[1:]
    partner = np.full(n_reviewers, NO_PARTNER, dtype=np.int64)
    # The dummy partner's key: any listed suitor beats it.
    best = np.full(n_reviewers, np.inf, dtype=np.complex128)
    free = np.flatnonzero(ends > next_choice)
    while free.size:
        active = free[next_choice[free] < ends[free]]
        if active.size == 0:
            break
        edges = next_choice[active]
        reviewers = pref[edges]
        offered = keys[edges]
        next_choice[active] += 1
        np.minimum.at(best, reviewers, offered)
        won = offered == best[reviewers]
        winners = active[won]
        win_reviewers = reviewers[won]
        holders = partner[win_reviewers]
        displaced = holders[holders != NO_PARTNER]
        partner[win_reviewers] = winners
        free = np.concatenate((active[~won], displaced))
    return partner, next_choice


def warm_frame_solve(
    state: FrameSolveState,
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    optimize_for: str = "passenger",
    alpha_by_taxi: Mapping[int, float] | None = None,
    on_new_trips: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> tuple[
    Matching,
    tuple[np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray],
    IncrementalBuildStats,
    FrameSolveState,
]:
    """Solve one frame warm: churn strips, proposer-only pack, keyed GS.

    Returns ``(matching, matched_rows, matched_legs, stats, next_state)``:
    the frame's stable matching (request id → taxi id, in NSTD
    orientation for both ``optimize_for`` modes); the matched
    ``(taxi_rows, request_rows)`` as positions into the given sequences,
    sorted by request id (so a caller can build a schedule without
    re-keying either side by id); the matched ``(pickup_km, trip_km)``
    leg lengths in the same order (the exact-kernel pickup distance of
    the accepted edge and the carried trip fact); build stats for
    telemetry; and the state seeding the next frame.  Bit-identical to
    the cold array path on the same inputs — see the module docstring
    for the arguments this rests on.

    Parameters.  ``state`` is the previous frame's
    :class:`FrameSolveState`; it is only *read* (a fresh state is
    returned), so one state object may safely back several lookups —
    the streaming zone matcher relies on this.  ``taxis`` and
    ``requests`` are the frame's idle fleet and pending queue;
    entities carried over from the previous frame must be the *same
    live objects* for the retained fast path to engage (equal-but-new
    objects are safely reclassified as new).  ``optimize_for`` selects
    the proposing side (``"passenger"`` or ``"taxi"``);
    ``alpha_by_taxi`` overrides ``config.alpha`` per driver.
    ``on_new_trips`` is called once per frame with the ids and trip
    distances of the *new* requests (the only trips computed this
    frame); the dispatcher uses it to keep the engine's request-keyed
    trip memo primed exactly as the cold path's bulk computation does.

    Raises :class:`~repro.core.errors.WarmStartError` — and never a
    partial result — when a precondition fails, carrying a machine-
    readable ``reason``: ``duplicate-ids`` (either side repeats an id),
    ``bad-alpha`` (negative per-driver α — surfaced here so the cold
    fallback reports the canonical ``PreferenceError``) or
    ``id-overflow`` (an id or count at or beyond 2^53, outside the
    float-exact range of the fused lanes).  Oracles without exact batch
    kernels are not an error: strip scoring falls back to the scalar
    helpers.  The caller must redo the frame cold and re-seed via
    :func:`frame_state_from_cold`; warm dispatchers count this as a
    ``warm_fallbacks`` telemetry event.
    """
    n_requests = len(requests)
    n_taxis = len(taxis)
    theta = config.passenger_threshold_km
    tau = config.taxi_threshold_km

    # -- classify churn: retained == member of the unmatched index ---------
    addrs = _addrs_of(requests)
    ret_r, addr_pos = _sorted_member_rows(state.req_addr_sorted, addrs)
    prev_rows = state.req_addr_rows[addr_pos] if state.req_addr_rows.size else addr_pos
    taxi_addrs = _addrs_of(taxis)
    ret_t, taxi_pos = _sorted_member_rows(state.taxi_addr_sorted, taxi_addrs)
    prev_t_rows = state.taxi_addr_rows[taxi_pos] if state.taxi_addr_rows.size else taxi_pos

    new_r_rows = np.flatnonzero(~ret_r)
    ret_r_rows = np.flatnonzero(ret_r)
    new_t_rows = np.flatnonzero(~ret_t)
    ret_t_rows = np.flatnonzero(ret_t)

    # -- fused entity facts: one gather per side, extract only the new -----
    # Retained rows were bounded and finiteness-checked when they first
    # entered a state, so only the new entities update the carried
    # bounds; one scalar comparison per frame replaces the full scans.
    ids_bound = state.ids_bound
    counts_bound = state.counts_bound
    facts_finite = state.facts_finite
    # Packed kernel entry points skip the per-call sequence conversion
    # and validation of the public batch API; same kernel, same bits.
    # Exact oracles without them (user-supplied) take the public path.
    exact_kernels = batch_kernels_exact(oracle)
    paired_packed = getattr(oracle, "paired_packed", None) if exact_kernels else None
    pairwise_packed = getattr(oracle, "pairwise_packed", None) if exact_kernels else None
    taxi_ids = np.empty(n_taxis, dtype=np.int64)
    tfacts = np.empty((n_taxis, 4), dtype=np.float64)
    if ret_t_rows.size:
        src_t = prev_t_rows[ret_t_rows]
        taxi_ids[ret_t_rows] = state.taxi_ids[src_t]
        tfacts[ret_t_rows] = state.tfacts[src_t]
    new_taxis = [taxis[i] for i in new_t_rows.tolist()]
    if new_taxis:
        k = len(new_taxis)
        new_tids = np.fromiter((t.taxi_id for t in new_taxis), dtype=np.int64, count=k)
        taxi_ids[new_t_rows] = new_tids
        if alpha_by_taxi is None:
            # Flat extraction: one C-level loop for x, y, seats; α is a
            # frame constant.
            blk = np.fromiter(
                (v for t in new_taxis for v in (t.location.x, t.location.y, t.seats)),
                dtype=np.float64,
                count=3 * k,
            ).reshape(k, 3)
            tfacts[new_t_rows, :_TALPHA] = blk
            alpha_const = float(config.alpha)
            tfacts[new_t_rows, _TALPHA] = alpha_const
            seats_new = blk[:, _TSEATS]
            if alpha_const < 0.0:
                raise WarmStartError("negative alpha in frame", reason="bad-alpha")
            facts_finite = facts_finite and math.isfinite(alpha_const)
        else:
            new_trows = np.array(
                [_taxi_fact_row(t, config, alpha_by_taxi) for t in new_taxis], dtype=np.float64
            )
            tfacts[new_t_rows] = new_trows
            seats_new = new_trows[:, _TSEATS]
            if bool(np.any(new_trows[:, _TALPHA] < 0.0)):
                raise WarmStartError("negative alpha in frame", reason="bad-alpha")
            facts_finite = facts_finite and bool(np.isfinite(new_trows[:, _TALPHA]).all())
        ids_bound = max(ids_bound, _abs_max(new_tids))
        counts_bound = max(counts_bound, _abs_max(seats_new))
    # The engines present both sides in ascending id order, making the
    # uniqueness checks one vectorized comparison each; the general path
    # (unsorted but unique is fine) only runs on hand-built frames.
    taxi_ids_ascending = n_taxis < 2 or bool(np.all(taxi_ids[1:] > taxi_ids[:-1]))
    if not taxi_ids_ascending and np.unique(taxi_ids).size != n_taxis:
        raise WarmStartError("duplicate taxi ids in frame", reason="duplicate-ids")

    req_ids = np.empty(n_requests, dtype=np.int64)
    rfacts = np.empty((n_requests, 4), dtype=np.float64)
    if ret_r_rows.size:
        src = prev_rows[ret_r_rows]
        req_ids[ret_r_rows] = state.req_ids[src]
        rfacts[ret_r_rows] = state.rfacts[src]
    new_requests = [requests[j] for j in new_r_rows.tolist()]
    if new_requests:
        k = len(new_requests)
        new_rids = np.fromiter((r.request_id for r in new_requests), dtype=np.int64, count=k)
        req_ids[new_r_rows] = new_rids
        new_pick = as_point_array([r.pickup for r in new_requests], check_finite=False)
        rfacts[new_r_rows, :_RPARTY] = new_pick
        party_new = np.fromiter(
            (r.passengers for r in new_requests), dtype=np.float64, count=k
        )
        rfacts[new_r_rows, _RPARTY] = party_new
        if paired_packed is not None:
            new_drop = as_point_array([r.dropoff for r in new_requests], check_finite=False)
            new_trips = np.asarray(paired_packed(new_pick, new_drop), dtype=np.float64)
            # request_trips validates coordinates on the exact path; a
            # non-finite coordinate always surfaces as a non-finite trip
            # (±inf/NaN survive subtraction, squaring and sqrt), so the
            # packed kernel reproduces its error behaviour from the trip
            # values alone.
            if not bool(np.isfinite(new_trips).all()):
                raise ValueError("non-finite coordinate in batch distance input")
        else:
            new_trips = request_trips(new_requests, oracle)
            facts_finite = facts_finite and bool(np.isfinite(new_trips).all())
        rfacts[new_r_rows, _RTRIP] = new_trips
        ids_bound = max(ids_bound, _abs_max(new_rids))
        counts_bound = max(counts_bound, _abs_max(party_new))
        if on_new_trips is not None:
            on_new_trips(new_rids, new_trips)
    req_ids_ascending = n_requests < 2 or bool(np.all(req_ids[1:] > req_ids[:-1]))
    if not req_ids_ascending and np.unique(req_ids).size != n_requests:
        raise WarmStartError("duplicate request ids in frame", reason="duplicate-ids")
    # Ids ride in the complex keys' imaginary float64 lane and counts in
    # fact-matrix lanes; both must stay integer-exact.  The carried
    # bounds cover every entity this state chain has seen (cold seeds
    # scan their full arrays), so two scalar comparisons suffice.
    if ids_bound >= _FLOAT_EXACT:
        raise WarmStartError("frame id exceeds float-exact range", reason="id-overflow")
    if counts_bound >= _FLOAT_EXACT:
        raise WarmStartError("frame count exceeds float-exact range", reason="id-overflow")

    txy = tfacts[:, : _TY + 1]
    rxy = rfacts[:, : _RY + 1]
    seats = tfacts[:, _TSEATS]
    alpha = tfacts[:, _TALPHA]
    party = rfacts[:, _RPARTY]
    trip = rfacts[:, _RTRIP]

    # -- churn strips: the frame's entire edge set --------------------------
    # Strip A: new taxis × all requests.  Strip B: retained taxis × new
    # requests.  Retained × retained is empty by the stability theorem.
    # Every acceptability condition is applied while the scores are
    # still dense matrices, so the edge lists below are only ever
    # materialized at their final size; the driver scores are computed
    # by the same elementwise IEEE operations as the cold pipeline.
    strip_ti: list[np.ndarray] = []
    strip_rj: list[np.ndarray] = []
    strip_pick: list[np.ndarray] = []
    strip_driver: list[np.ndarray] = []
    # Lean-mask regime: with θ finite and every trip/α finite, a pair can
    # only survive ``pick ≤ θ`` with finite pick, and then its driver cost
    # is finite by construction (finite − finite·finite); NaN coordinates
    # fail the ≤ comparisons on their own.  Both ``isfinite`` masks are
    # therefore redundant — the surviving edge set is provably identical.
    lean_masks = math.isfinite(theta) and facts_finite

    def score_block(t_block: np.ndarray, r_block: np.ndarray | None) -> None:
        """Score one taxi-rows × request-rows strip and keep survivors.

        ``r_block=None`` means *all requests* (the new-taxi strip) and
        skips the request-side gathers entirely.
        """
        if r_block is None:
            r_xy, r_party, r_trip = rxy, party, trip

            def pick_points() -> list[Point]:
                return [r.pickup for r in requests]

        else:
            rb = r_block
            r_xy = rxy[rb]
            r_party = party[rb]
            r_trip = trip[rb]

            def pick_points() -> list[Point]:
                return [requests[j].pickup for j in rb.tolist()]

        if pairwise_packed is not None:
            pick_m = pairwise_packed(txy[t_block], r_xy)
        else:
            pick_m = _pickup_strip(
                oracle,
                txy[t_block],
                lambda: [taxis[i].location for i in t_block.tolist()],
                r_xy,
                pick_points,
            )
        # Same *, − operations as ``pick − α·trip``, recycling the α·trip
        # buffer (bit-identical, one fewer strip-sized allocation).
        driver_m = alpha[t_block, None] * r_trip[None, :]
        np.subtract(pick_m, driver_m, out=driver_m)
        ok = pick_m <= theta
        ok &= r_party[None, :] <= seats[t_block, None]
        if not lean_masks:
            ok &= np.isfinite(pick_m)
            ok &= np.isfinite(driver_m)
        ok &= driver_m <= tau
        # One nonzero scan feeds every gather: integer fancy indexing
        # walks the same row-major survivor order a boolean mask would,
        # without re-scanning the mask per gathered array.
        t_loc, r_loc = np.nonzero(ok)
        strip_ti.append(t_block[t_loc])
        strip_rj.append(r_loc if r_block is None else r_block[r_loc])
        strip_pick.append(pick_m[t_loc, r_loc])
        strip_driver.append(driver_m[t_loc, r_loc])

    if new_t_rows.size and n_requests:
        score_block(new_t_rows, None)
    if ret_t_rows.size and new_r_rows.size:
        score_block(ret_t_rows, new_r_rows)

    if strip_ti:
        ti = np.concatenate(strip_ti)
        rj = np.concatenate(strip_rj)
        pick = np.concatenate(strip_pick)
        driver = np.concatenate(strip_driver)
    else:
        ti = np.empty(0, dtype=np.intp)
        rj = np.empty(0, dtype=np.intp)
        pick = np.empty(0, dtype=np.float64)
        driver = np.empty(0, dtype=np.float64)
    n_edges = len(rj)

    # -- proposer-only canonical pack + keyed GS ---------------------------
    # One lexsort realizes the total (proposer row, score, partner id)
    # order of the cold pack regardless of strip emission order — the key
    # triple is unique per edge (a partner appears once per row), so the
    # permutation is the unique sorted order.  When a side's ids ascend in
    # row order, its row indices are order-isomorphic to its ids and
    # stand in for them, narrowed to 16 bits where the frame allows (the
    # cheaper sort keys).  The reviewer side needs no pack at all: its
    # (score, id) order is encoded in the complex keys.
    idx_small = max(n_taxis, n_requests) <= 32767
    if optimize_for == "taxi":
        prop_rows, rev_rows = ti, rj
        n_prop, n_rev = n_taxis, n_requests
        prop_score = driver
        partner_tie = (
            rj.astype(np.int16) if (idx_small and req_ids_ascending) else req_ids[rj]
        )
        rev_score = pick
        rev_tie_ids = taxi_ids
    else:
        prop_rows, rev_rows = rj, ti
        n_prop, n_rev = n_requests, n_taxis
        prop_score = pick
        partner_tie = (
            ti.astype(np.int16) if (idx_small and taxi_ids_ascending) else taxi_ids[ti]
        )
        rev_score = driver
        rev_tie_ids = req_ids
    prop_small = prop_rows.astype(np.int16) if idx_small else prop_rows
    order = np.lexsort((partner_tie, prop_score, prop_small))
    indptr = np.zeros(n_prop + 1, dtype=np.int64)
    np.cumsum(np.bincount(prop_rows, minlength=n_prop), out=indptr[1:])
    pref = rev_rows[order]
    keys = np.empty(n_edges, dtype=np.complex128)
    keys.real = rev_score[order]
    keys.imag = rev_tie_ids[prop_rows[order]].astype(np.float64)
    partner, final_choice = _gs_rounds_keyed(indptr, pref, keys, n_rev)

    matched_rev = np.flatnonzero(partner != NO_PARTNER)
    matched_prop = partner[matched_rev]
    if optimize_for == "taxi":
        t_rows_m, r_rows_m = matched_prop, matched_rev
    else:
        t_rows_m, r_rows_m = matched_rev, matched_prop
    matching = Matching(dict(zip(req_ids[r_rows_m].tolist(), taxi_ids[t_rows_m].tolist())))
    # Present matched rows sorted by request id — the order NSTD's
    # schedule builder iterates pairs in.
    row_order = np.argsort(req_ids[r_rows_m], kind="stable")
    matched_rows = (t_rows_m[row_order], r_rows_m[row_order])
    # Each matched proposer's accepted edge is its last proposal
    # (``final_choice - 1`` in pack order); ``order`` maps it back to the
    # strip arrays, whose pick entry is the exact-kernel pickup distance
    # of that very pair.
    pick_pair = pick[order[final_choice[matched_prop] - 1]]
    matched_legs = (pick_pair[row_order], trip[matched_rows[1]])

    stats = IncrementalBuildStats(
        n_taxis=n_taxis,
        n_requests=n_requests,
        retained_taxis=int(ret_t_rows.size),
        retained_requests=int(ret_r_rows.size),
        pairs_scored=int(new_t_rows.size) * n_requests
        + int(ret_t_rows.size) * int(new_r_rows.size),
        full_pairs=n_taxis * n_requests,
    )

    req_addr_sorted, req_addr_rows = _unmatched_addr_index(
        addrs, matched_rows[1], n_requests
    )
    taxi_addr_sorted, taxi_addr_rows = _unmatched_addr_index(
        taxi_addrs, matched_rows[0], n_taxis
    )
    new_state = FrameSolveState(
        req_ids=req_ids,
        req_addr_sorted=req_addr_sorted,
        req_addr_rows=req_addr_rows,
        req_objs=list(requests),
        rfacts=rfacts,
        taxi_ids=taxi_ids,
        taxi_addr_sorted=taxi_addr_sorted,
        taxi_addr_rows=taxi_addr_rows,
        taxi_objs=list(taxis),
        tfacts=tfacts,
        ids_bound=ids_bound,
        counts_bound=counts_bound,
        facts_finite=facts_finite,
    )
    return matching, matched_rows, matched_legs, stats, new_state
