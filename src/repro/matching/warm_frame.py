"""The warm frame solver: churn strips, fused facts, shared GS rounds.

The one warm solver: each frame solves only the edges its churn
touched, in one allocation-lean path for the engines' frame cadence.
Two facts about the engines make this exact:

**Stability theorem (edge turnover).**  In a stable matching with
dummies, an unmatched proposer and an unmatched reviewer cannot be
mutually acceptable — they would form a blocking pair (both prefer any
listed partner to the dummy).  The engine departs every matched pair
together (the taxi drives off with its passenger), so the entities two
consecutive frames share are the *unmatched* ones; those whose facts
did not change are the *retained* ones.  Hence the retained × retained
block of the new frame contains **no acceptable pair**, and the new frame's entire edge set
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
new arrays.  (DESIGN §10 states the general case's three preconditions
— no held proposer left while its reviewer stayed, no preference prefix
changed under a cursor, no held edge vanished; here they hold
vacuously, because nothing is held, so the solve runs fresh rounds.)

What the warm path then saves per frame:

* the full ``taxis × requests`` pickup kernel and acceptability masks —
  only the churn strips are scored;
* every per-frame Python attribute walk over the queue: the frame's
  facts arrive as the two fused matrices of :class:`FrameOperands`
  (``(R, 4)`` request ``x, y, party, trip`` and ``(T, 4)`` taxi
  ``x, y, seats, α``), and the carried state is those same arrays;
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
  the same winner, round for round, as the cold frame's ranks.  The
  rounds themselves are the cold engine's:
  :func:`~repro.matching.deferred_acceptance.gale_shapley_rounds` takes
  the reviewer key of each edge, int rank or complex key alike.  Ids
  ride in the imaginary float64 lane, exact below 2^53; larger ids
  raise :class:`~repro.core.errors.WarmStartError` and the frame re-runs
  cold.  Party and seat counts share the same float-exact bound.

The frame is an operand, not a walk: each side arrives as arrays
(:class:`FrameOperands`) — int64 ids plus the fused fact rows
``x, y, party, trip`` per request and ``x, y, seats, α`` per taxi, row
``i`` describing item ``i`` of the frame's list.  The engines gather
them from the run's columns; :func:`frame_operands` builds them from
the objects everywhere else.  The solver measures no trip and reads no
entity object.  Each matched pair's pickup leg is read straight out of
the frame's edge arrays and returned with the matching, so the
dispatcher can ship a packed schedule without re-deriving it.

**Retention by id and bit-equal facts.**  An entity is *retained* only
when both hold: its id is in the previous matching's sorted index of
*unmatched* ids, and its fact row is bit-equal to the row the state
carried for that id.  The second condition is the theorem's real
precondition: whether a pair is acceptable is a function of the two
fact rows alone (the oracle and the thresholds are the run's), so two
entities whose rows are unchanged are as unacceptable to each other as
they were when the previous stable matching left both unmatched.  A
matched entity that reappears is not in the index, and an unmatched
taxi that moved, or whose α changed, fails the comparison: both
re-enter as new.  Classification can only err toward *new*, which is
always sound — a new entity's strip rows are scored, and the
acceptability masks discard the entries the theorem proves empty.
Repeated ids are rejected before classification, so an id names one
row per side.

Any violated precondition raises
:class:`~repro.core.errors.WarmStartError`; the dispatcher redoes the
frame cold (and re-seeds), so a warm run can never produce a frame the
cold path would not.  Input the cold frame rejects (a non-finite
coordinate) raises the same ``ValueError`` here, because every distance
goes through the one batch API of :mod:`repro.geometry.batch`, which
validates coordinate arrays on the exact kernels.

:func:`warm_frame_solve` runs four module-level phases, in order:
:func:`_classify_churn` (retained or new, per entity, and the entrants'
id, count and α checks), :func:`_churn_strips` (the frame's edge set,
one :func:`_score_strip` per churn strip), :func:`_pack_and_solve` (the
canonical proposer pack plus the shared Gale–Shapley rounds) and :func:`_egress` (matching,
matched rows and pickup legs, stats and the next state).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import WarmStartError
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.batch import as_point_array, oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.matching.arrays import NO_PARTNER
from repro.matching.deferred_acceptance import gale_shapley_rounds
from repro.matching.result import Matching

__all__ = [
    "FrameOperands",
    "FrameSolveState",
    "IncrementalBuildStats",
    "frame_operands",
    "frame_state_from_cold",
    "taxi_alphas",
    "warm_frame_solve",
]

#: Column layout of the fused per-request fact matrix.
_RX, _RY, _RPARTY, _RTRIP = 0, 1, 2, 3
#: Column layout of the fused per-taxi fact matrix.
_TX, _TY, _TSEATS, _TALPHA = 0, 1, 2, 3

#: Ids and counts carried in float64 lanes must stay integer-exact.
_FLOAT_EXACT = float(1 << 53)


class FrameOperands(NamedTuple):
    """One frame's two sides as arrays: row ``i`` of a side describes
    item ``i`` of that side's list (the idle taxis, the queue)."""

    taxi_ids: np.ndarray
    """``(T,)`` int64 taxi ids."""
    taxi_facts: np.ndarray
    """``(T, 4)`` float64: x, y, seats, α."""
    request_ids: np.ndarray
    """``(R,)`` int64 request ids."""
    request_facts: np.ndarray
    """``(R, 4)`` float64: pickup x, pickup y, party, trip km."""

    @property
    def taxi_xy(self) -> np.ndarray:
        """The taxis' ``(T, 2)`` positions (a view)."""
        return self.taxi_facts[:, _TX : _TY + 1]

    @property
    def pickup_xy(self) -> np.ndarray:
        """The requests' ``(R, 2)`` pickups (a view)."""
        return self.request_facts[:, _RX : _RY + 1]

    @property
    def trip_km(self) -> np.ndarray:
        """The requests' ``(R,)`` trips (a view)."""
        return self.request_facts[:, _RTRIP]

    def take(self, taxi_rows: np.ndarray, request_rows: np.ndarray) -> FrameOperands:
        """The operands of the sub-frame at ``taxi_rows`` × ``request_rows``."""
        return FrameOperands(
            self.taxi_ids[taxi_rows],
            self.taxi_facts.take(taxi_rows, axis=0),
            self.request_ids[request_rows],
            self.request_facts.take(request_rows, axis=0),
        )


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

    The previous frame's :class:`FrameOperands`, plus, per side, the
    sorted ids of the entities its matching left *unmatched* and their
    rows: an entity of the next frame is retained when its id is in
    that index and its fact row is bit-equal to the carried one.
    """

    frame: FrameOperands
    """The previous frame's operands, in its queue and fleet order."""
    req_unmatched_ids: np.ndarray
    """Sorted int64 ids of the previously *unmatched* requests."""
    req_unmatched_rows: np.ndarray
    """Previous-frame row of each ``req_unmatched_ids`` entry."""
    taxi_unmatched_ids: np.ndarray
    """Sorted int64 ids of the previously *unmatched* taxis."""
    taxi_unmatched_rows: np.ndarray
    """Previous-frame row of each ``taxi_unmatched_ids`` entry."""
    ids_bound: float
    """Upper bound on ``max |id|`` over every entity the state has seen.

    Conservative and monotone (departed entities keep contributing), so
    one scalar comparison per frame replaces the full-array float-exact
    scan; a cold reseed recomputes it exactly.
    """
    counts_bound: float
    """Same bound for party sizes and seat counts."""


class _Churn(NamedTuple):
    """Phase 1's verdict: which of the frame's entities are retained,
    whether each side's ids ascend, and the carried bounds."""

    new_r_rows: np.ndarray
    ret_r_rows: np.ndarray
    new_t_rows: np.ndarray
    ret_t_rows: np.ndarray
    taxi_ids_ascending: bool
    req_ids_ascending: bool
    ids_bound: float
    counts_bound: float


class _Edges(NamedTuple):
    """Phase 2's acceptable edges: taxi row, request row, both scores."""

    ti: np.ndarray
    rj: np.ndarray
    pick: np.ndarray
    driver: np.ndarray


class _Solved(NamedTuple):
    """Phase 3's result: the pack permutation and the rounds' outcome."""

    order: np.ndarray
    """Edge index of each CSR slot (the canonical pack permutation)."""
    partner: np.ndarray
    """Proposer position each reviewer holds (or :data:`NO_PARTNER`)."""
    final_choice: np.ndarray
    """Per proposer, one past the CSR slot of its last proposal."""


def taxi_alphas(
    taxi_ids: np.ndarray, alpha: float, alpha_by_taxi: Mapping[int, float] | None
) -> float | np.ndarray:
    """Each taxi's α: ``alpha``, or the map's value where it names the
    taxi (a scalar when there is no map)."""
    if alpha_by_taxi is None:
        return alpha
    return np.fromiter(
        (alpha_by_taxi.get(i, alpha) for i in taxi_ids.tolist()),
        dtype=np.float64,
        count=taxi_ids.size,
    )


def frame_operands(
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    *,
    trip_km: np.ndarray,
    alpha: float,
    alpha_by_taxi: Mapping[int, float] | None = None,
) -> FrameOperands:
    """The frame's :class:`FrameOperands`, built from the objects.

    ``trip_km`` is ``D(r^s, r^d)`` per request, in ``requests`` order;
    each taxi's α is ``alpha`` or its ``alpha_by_taxi`` entry.  Raises
    ``ValueError`` when ``trip_km`` does not hold one trip per request.
    The engines gather the same arrays from their run's columns
    instead (:meth:`~repro.simulation.core.RunCore.frame_operands`).
    """
    trip = np.asarray(trip_km, dtype=np.float64)
    if trip.shape != (len(requests),):
        raise ValueError(f"trip_km has shape {trip.shape}, expected ({len(requests)},)")
    n_taxis, n_requests = len(taxis), len(requests)
    taxi_ids = np.fromiter((t.taxi_id for t in taxis), dtype=np.int64, count=n_taxis)
    taxi_facts = np.empty((n_taxis, 4), dtype=np.float64)
    taxi_facts[:, :_TALPHA] = np.fromiter(
        (v for t in taxis for v in (t.location.x, t.location.y, t.seats)),
        dtype=np.float64,
        count=3 * n_taxis,
    ).reshape(n_taxis, 3)
    taxi_facts[:, _TALPHA] = taxi_alphas(taxi_ids, alpha, alpha_by_taxi)
    request_ids = np.fromiter(
        (r.request_id for r in requests), dtype=np.int64, count=n_requests
    )
    request_facts = np.empty((n_requests, 4), dtype=np.float64)
    request_facts[:, _RX : _RY + 1] = as_point_array(
        [r.pickup for r in requests], check_finite=False
    )
    request_facts[:, _RPARTY] = np.fromiter(
        (r.passengers for r in requests), dtype=np.float64, count=n_requests
    )
    request_facts[:, _RTRIP] = trip
    return FrameOperands(taxi_ids, taxi_facts, request_ids, request_facts)


def _check_operands(frame: FrameOperands) -> None:
    """Raise ``ValueError`` unless each side has one float64 fact row per
    int64 id."""
    for what, ids, facts in (
        ("taxi", frame.taxi_ids, frame.taxi_facts),
        ("request", frame.request_ids, frame.request_facts),
    ):
        if (
            ids.ndim != 1
            or ids.dtype != np.int64
            or facts.shape != (ids.size, 4)
            or facts.dtype != np.float64
        ):
            raise ValueError(
                f"{what} operands disagree: ids {ids.shape}, facts {facts.shape}"
            )


def _sorted_member_rows(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(found_mask, positions)`` of each key inside a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), dtype=np.intp)
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return sorted_keys[pos] == keys, pos


def _abs_max(values: np.ndarray) -> float:
    """``max |values|`` as a float, 0 for an empty array."""
    return float(np.abs(values).max()) if values.size else 0.0


def _unmatched_index(
    ids: np.ndarray, matched_rows: np.ndarray, ascending: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted unmatched ids, their frame rows)`` for one side."""
    keep = np.ones(ids.size, dtype=bool)
    keep[matched_rows] = False
    rows = np.flatnonzero(keep)
    if not ascending:
        # Ids are unique, so the unstable default sort yields the same
        # permutation as a stable one, faster.
        rows = rows[np.argsort(ids[rows])]
    return ids[rows], rows


def _rows_of_ids(ids: np.ndarray, wanted: Sequence[int]) -> np.ndarray:
    """Frame rows of ``wanted`` ids (each id must occur in ``ids``)."""
    if not len(wanted):
        return np.empty(0, dtype=np.intp)
    wanted_arr = np.fromiter(map(int, wanted), dtype=np.int64, count=len(wanted))
    order = np.argsort(ids, kind="stable")
    return np.asarray(order[np.searchsorted(ids[order], wanted_arr)], dtype=np.intp)


def _ascends(ids: np.ndarray) -> bool:
    """Whether ``ids`` ascend strictly."""
    return ids.size < 2 or bool(np.all(ids[1:] > ids[:-1]))


def frame_state_from_cold(frame: FrameOperands, matching: Matching) -> FrameSolveState:
    """Seed warm state from a cold frame's operands and solved matching.

    ``matching`` maps request id → taxi id (both NSTD orientations after
    the dispatcher's flip); ``frame`` must describe the frame the cold
    solve matched, with the α the next :func:`warm_frame_solve` will
    see in the taxi facts.

    The returned state carries the frame's operands and indexes only
    the unmatched entities' ids (a matched entity presented later is
    treated as *new*).  Never raises on a frame the cold solve accepted:
    any id problem was already rejected there.
    """
    _check_operands(frame)
    req_ids, taxi_ids = frame.request_ids, frame.taxi_ids
    req_unmatched_ids, req_unmatched_rows = _unmatched_index(
        req_ids, _rows_of_ids(req_ids, [p for p, _ in matching.pairs]), _ascends(req_ids)
    )
    taxi_unmatched_ids, taxi_unmatched_rows = _unmatched_index(
        taxi_ids, _rows_of_ids(taxi_ids, [t for _, t in matching.pairs]), _ascends(taxi_ids)
    )
    return FrameSolveState(
        frame=frame,
        req_unmatched_ids=req_unmatched_ids,
        req_unmatched_rows=req_unmatched_rows,
        taxi_unmatched_ids=taxi_unmatched_ids,
        taxi_unmatched_rows=taxi_unmatched_rows,
        ids_bound=max(_abs_max(req_ids), _abs_max(taxi_ids)),
        counts_bound=max(
            _abs_max(frame.request_facts[:, _RPARTY]), _abs_max(frame.taxi_facts[:, _TSEATS])
        ),
    )


def warm_frame_solve(
    state: FrameSolveState,
    frame: FrameOperands,
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    optimize_for: str = "passenger",
) -> tuple[
    Matching,
    tuple[np.ndarray, np.ndarray],
    np.ndarray,
    IncrementalBuildStats,
    FrameSolveState,
]:
    """Solve one frame warm: churn strips, proposer-only pack, shared GS rounds.

    Returns ``(matching, matched_rows, matched_pickup_km, stats,
    next_state)``: the frame's stable matching (request id → taxi id,
    in NSTD orientation for both ``optimize_for`` modes); the matched
    ``(taxi_rows, request_rows)`` as rows of ``frame`` (positions into
    the lists it describes), sorted by request id (so a caller can
    build a schedule without re-keying either side by id); the matched
    pairs' pickup legs in the same order (the exact-kernel distance of
    each accepted edge); build stats for telemetry; and the state
    seeding the next frame.  Bit-identical to the cold array path on the
    same inputs — see the module docstring for the arguments this rests
    on.

    Parameters.  ``state`` is the previous frame's
    :class:`FrameSolveState`; it is only *read* (a fresh state is
    returned), so one state object may safely back several lookups —
    the streaming zone matcher relies on this.  ``frame`` holds the
    frame's idle fleet and pending queue as :class:`FrameOperands`,
    whose taxi facts carry each driver's α.  ``optimize_for`` selects
    the proposing side (``"passenger"`` or ``"taxi"``).

    Raises ``ValueError`` when a side's fact rows do not match its ids
    one for one.  Raises :class:`~repro.core.errors.WarmStartError` —
    and never a partial result — when a precondition fails, carrying a
    machine-readable ``reason``: ``duplicate-ids`` (either side repeats
    an id), ``bad-alpha`` (negative per-driver α — surfaced here so the
    cold fallback reports the canonical ``PreferenceError``) or
    ``id-overflow`` (an id or count at or beyond 2^53, outside the
    float-exact range of the fused lanes).  Oracles without exact batch
    kernels are not an error: strip scoring falls back to the scalar
    helpers.  The caller must redo the frame cold and re-seed via
    :func:`frame_state_from_cold`; warm dispatchers count this as a
    ``warm_fallbacks`` telemetry event.  A non-finite coordinate raises
    the cold frame's ``ValueError``.
    """
    _check_operands(frame)
    churn = _classify_churn(state, frame)
    edges = _churn_strips(churn, frame, oracle, config)
    solved = _pack_and_solve(edges, churn, frame, optimize_for)
    return _egress(churn, frame, edges, solved, optimize_for)


def _ids_ascending(ids: np.ndarray, what: str) -> bool:
    """Whether ``ids`` ascend strictly; raises on a repeated id.

    The engines present both sides in ascending id order, making the
    uniqueness check one vectorized comparison; the general path
    (unsorted but unique is fine) only runs on hand-built frames.
    """
    if _ascends(ids):
        return True
    if np.unique(ids).size != ids.size:
        raise WarmStartError(f"duplicate {what} ids in frame", reason="duplicate-ids")
    return False


def _retained(
    ids: np.ndarray,
    facts: np.ndarray,
    unmatched_ids: np.ndarray,
    unmatched_rows: np.ndarray,
    prev_facts: np.ndarray,
) -> np.ndarray:
    """The retained mask of one side: the id is in the unmatched index
    and the fact row is bit-equal to the carried one.

    Row gathers use ``take``, which NumPy runs several times faster than
    fancy indexing on these ``(n, 4)`` matrices.
    """
    found, pos = _sorted_member_rows(unmatched_ids, ids)
    rows = np.flatnonzero(found)
    if rows.size:
        prev = unmatched_rows[pos[rows]]
        # Compare the float64 rows as raw bits: -0.0 against 0.0 (or one
        # NaN payload against another) counts as a change, erring toward
        # new, which is always sound.
        same = facts.take(rows, axis=0).view(np.uint64) == prev_facts.take(
            prev, axis=0
        ).view(np.uint64)
        if not same.all():
            found[rows[~same.all(axis=1)]] = False
    return found


def _classify_churn(state: FrameSolveState, frame: FrameOperands) -> _Churn:
    """Phase 1: which entities are retained, and the entrants' checks.

    Repeated ids raise before any lookup.  Retained rows were checked
    and bounded when they first entered a state, so only the entrants
    update the carried bounds and face the α check; one scalar
    comparison per bound replaces the full scans.
    """
    taxi_ids_ascending = _ids_ascending(frame.taxi_ids, "taxi")
    req_ids_ascending = _ids_ascending(frame.request_ids, "request")
    prev = state.frame
    ret_t = _retained(
        frame.taxi_ids,
        frame.taxi_facts,
        state.taxi_unmatched_ids,
        state.taxi_unmatched_rows,
        prev.taxi_facts,
    )
    ret_r = _retained(
        frame.request_ids,
        frame.request_facts,
        state.req_unmatched_ids,
        state.req_unmatched_rows,
        prev.request_facts,
    )
    new_t_rows, new_r_rows = np.flatnonzero(~ret_t), np.flatnonzero(~ret_r)
    new_tfacts = frame.taxi_facts.take(new_t_rows, axis=0)
    if bool(np.any(new_tfacts[:, _TALPHA] < 0.0)):
        raise WarmStartError("negative alpha in frame", reason="bad-alpha")
    # Ids ride in the complex keys' imaginary float64 lane and counts in
    # fact-matrix lanes; both must stay integer-exact.  The carried
    # bounds cover every entity this state chain has seen (cold seeds
    # scan their full arrays), so two scalar comparisons suffice.
    ids_bound = max(
        state.ids_bound,
        _abs_max(frame.taxi_ids[new_t_rows]),
        _abs_max(frame.request_ids[new_r_rows]),
    )
    counts_bound = max(
        state.counts_bound,
        _abs_max(new_tfacts[:, _TSEATS]),
        _abs_max(frame.request_facts[:, _RPARTY].take(new_r_rows)),
    )
    if ids_bound >= _FLOAT_EXACT:
        raise WarmStartError("frame id exceeds float-exact range", reason="id-overflow")
    if counts_bound >= _FLOAT_EXACT:
        raise WarmStartError("frame count exceeds float-exact range", reason="id-overflow")
    return _Churn(
        new_r_rows=new_r_rows,
        ret_r_rows=np.flatnonzero(ret_r),
        new_t_rows=new_t_rows,
        ret_t_rows=np.flatnonzero(ret_t),
        taxi_ids_ascending=taxi_ids_ascending,
        req_ids_ascending=req_ids_ascending,
        ids_bound=ids_bound,
        counts_bound=counts_bound,
    )


def _churn_strips(
    churn: _Churn, frame: FrameOperands, oracle: DistanceOracle, config: DispatchConfig
) -> _Edges:
    """Phase 2: the frame's entire edge set, from the two churn strips.

    Strip A: new taxis × all requests.  Strip B: retained taxis × new
    requests.  Retained × retained is empty by the stability theorem.
    """
    strips: list[_Edges] = []
    if churn.new_t_rows.size and frame.request_ids.size:
        strips.append(_score_strip(frame, oracle, config, churn.new_t_rows, None))
    if churn.ret_t_rows.size and churn.new_r_rows.size:
        strips.append(_score_strip(frame, oracle, config, churn.ret_t_rows, churn.new_r_rows))
    if not strips:
        no_rows, no_scores = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        return _Edges(no_rows, no_rows, no_scores, no_scores)
    ti, rj, pick, driver = (np.concatenate(column) for column in zip(*strips))
    return _Edges(ti, rj, pick, driver)


def _score_strip(
    frame: FrameOperands,
    oracle: DistanceOracle,
    config: DispatchConfig,
    t_block: np.ndarray,
    r_block: np.ndarray | None,
) -> _Edges:
    """Score one taxi-rows × request-rows strip and keep the survivors.

    ``r_block=None`` means *all requests* (the new-taxi strip) and skips
    the request-side gathers.  Every acceptability condition is applied
    while the scores are still dense matrices, so the edge arrays are
    only ever materialized at their final size; the driver scores come
    from the same elementwise IEEE operations as the cold pipeline.
    """
    rfacts = frame.request_facts if r_block is None else frame.request_facts.take(r_block, axis=0)
    tfacts = frame.taxi_facts.take(t_block, axis=0)
    pick_m = oracle_pairwise(
        oracle, sources=tfacts[:, : _TY + 1], targets=rfacts[:, : _RY + 1], exact=True
    )
    # Same *, − operations as ``pick − α·trip``, recycling the α·trip
    # buffer (bit-identical, one fewer strip-sized allocation).
    driver_m = tfacts[:, _TALPHA, None] * rfacts[None, :, _RTRIP]
    np.subtract(pick_m, driver_m, out=driver_m)
    ok = pick_m <= config.passenger_threshold_km
    ok &= rfacts[None, :, _RPARTY] <= tfacts[:, _TSEATS, None]
    ok &= np.isfinite(pick_m)
    ok &= np.isfinite(driver_m)
    ok &= driver_m <= config.taxi_threshold_km
    # One nonzero scan feeds every gather: integer fancy indexing walks
    # the same row-major survivor order a boolean mask would, without
    # re-scanning the mask per gathered array.
    t_loc, r_loc = np.nonzero(ok)
    return _Edges(
        ti=t_block[t_loc],
        rj=r_loc if r_block is None else r_block[r_loc],
        pick=pick_m[t_loc, r_loc],
        driver=driver_m[t_loc, r_loc],
    )


def _pack_and_solve(
    edges: _Edges, churn: _Churn, frame: FrameOperands, optimize_for: str
) -> _Solved:
    """Phase 3: the proposer-only canonical pack and the shared GS rounds.

    One lexsort realizes the total (proposer row, score, partner id)
    order of the cold pack regardless of strip emission order — the key
    triple is unique per edge (a partner appears once per row), so the
    permutation is the unique sorted order.  When a side's ids ascend in
    row order, its row indices are order-isomorphic to its ids and stand
    in for them, narrowed to 16 bits where the frame allows: the cheaper
    sort keys pay for themselves on the engines' frames (DESIGN §10).
    The reviewer side needs no pack at all: its (score, id) order is
    encoded in the complex keys.
    """
    ti, rj = edges.ti, edges.rj
    taxi_ids, req_ids = frame.taxi_ids, frame.request_ids
    n_taxis, n_requests = taxi_ids.size, req_ids.size
    idx_small = max(n_taxis, n_requests) <= 32767
    if optimize_for == "taxi":
        prop_rows, rev_rows = ti, rj
        n_prop, n_rev = n_taxis, n_requests
        prop_score = edges.driver
        partner_tie = (
            rj.astype(np.int16)
            if (idx_small and churn.req_ids_ascending)
            else req_ids[rj]
        )
        rev_score = edges.pick
        rev_tie_ids = taxi_ids
    else:
        prop_rows, rev_rows = rj, ti
        n_prop, n_rev = n_requests, n_taxis
        prop_score = edges.pick
        partner_tie = (
            ti.astype(np.int16)
            if (idx_small and churn.taxi_ids_ascending)
            else taxi_ids[ti]
        )
        rev_score = edges.driver
        rev_tie_ids = req_ids
    prop_small = prop_rows.astype(np.int16) if idx_small else prop_rows
    order = np.lexsort((partner_tie, prop_score, prop_small))
    indptr = np.zeros(n_prop + 1, dtype=np.int64)
    np.cumsum(np.bincount(prop_rows, minlength=n_prop), out=indptr[1:])
    pref = rev_rows[order]
    keys = np.empty(order.size, dtype=np.complex128)
    keys.real = rev_score[order]
    keys.imag = rev_tie_ids[prop_rows[order]].astype(np.float64)
    partner, final_choice, _, _ = gale_shapley_rounds(indptr, pref, keys, n_rev)
    return _Solved(order=order, partner=partner, final_choice=final_choice)


def _egress(
    churn: _Churn,
    frame: FrameOperands,
    edges: _Edges,
    solved: _Solved,
    optimize_for: str,
) -> tuple[
    Matching,
    tuple[np.ndarray, np.ndarray],
    np.ndarray,
    IncrementalBuildStats,
    FrameSolveState,
]:
    """Phase 4: :func:`warm_frame_solve`'s return value."""
    taxi_ids, req_ids = frame.taxi_ids, frame.request_ids
    n_taxis, n_requests = taxi_ids.size, req_ids.size
    matched_rev = np.flatnonzero(solved.partner != NO_PARTNER)
    matched_prop = solved.partner[matched_rev]
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
    pick_pair = edges.pick[solved.order[solved.final_choice[matched_prop] - 1]]

    stats = IncrementalBuildStats(
        n_taxis=n_taxis,
        n_requests=n_requests,
        retained_taxis=int(churn.ret_t_rows.size),
        retained_requests=int(churn.ret_r_rows.size),
        pairs_scored=int(churn.new_t_rows.size) * n_requests
        + int(churn.ret_t_rows.size) * int(churn.new_r_rows.size),
        full_pairs=n_taxis * n_requests,
    )

    req_unmatched_ids, req_unmatched_rows = _unmatched_index(
        req_ids, matched_rows[1], churn.req_ids_ascending
    )
    taxi_unmatched_ids, taxi_unmatched_rows = _unmatched_index(
        taxi_ids, matched_rows[0], churn.taxi_ids_ascending
    )
    new_state = FrameSolveState(
        frame=frame,
        req_unmatched_ids=req_unmatched_ids,
        req_unmatched_rows=req_unmatched_rows,
        taxi_unmatched_ids=taxi_unmatched_ids,
        taxi_unmatched_rows=taxi_unmatched_rows,
        ids_bound=churn.ids_bound,
        counts_bound=churn.counts_bound,
    )
    return matching, matched_rows, pick_pair[row_order], stats, new_state
