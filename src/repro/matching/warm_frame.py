"""The warm frame solver: churn strips, fused facts, shared GS rounds.

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
new arrays.  (DESIGN §10 states the general case's three preconditions
— no held proposer left while its reviewer stayed, no preference prefix
changed under a cursor, no held edge vanished; here they hold
vacuously, because nothing is held, so the solve runs fresh rounds.)

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
  the same winner, round for round, as the cold frame's ranks.  The
  rounds themselves are the cold engine's:
  :func:`~repro.matching.deferred_acceptance.gale_shapley_rounds` takes
  the reviewer key of each edge, int rank or complex key alike.  Ids
  ride in the imaginary float64 lane, exact below 2^53; larger ids
  raise :class:`~repro.core.errors.WarmStartError` and the frame re-runs
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
cold path would not.  Input the cold frame rejects (a non-finite
coordinate) raises the same ``ValueError`` here, because every distance
goes through the one batch API of :mod:`repro.geometry.batch`, which
validates coordinate arrays on the exact kernels.

:func:`warm_frame_solve` runs five module-level phases, in order:
:func:`_classify_churn` (retained or new, per entity),
:func:`_entity_facts` (the fused fact matrices, ids and their bounds),
:func:`_churn_strips` (the frame's edge set, one :func:`_score_strip`
per churn strip), :func:`_pack_and_solve` (the canonical proposer pack
plus the shared Gale–Shapley rounds) and :func:`_egress` (matching,
matched rows and legs, stats and the next state).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import WarmStartError
from repro.core.types import PassengerRequest, Taxi
from repro.geometry.batch import as_point_array, oracle_paired, oracle_pairwise
from repro.geometry.distance import DistanceOracle
from repro.matching.arrays import NO_PARTNER
from repro.matching.deferred_acceptance import gale_shapley_rounds
from repro.matching.result import Matching

__all__ = [
    "FrameSolveState",
    "IncrementalBuildStats",
    "frame_state_from_cold",
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


class _Churn(NamedTuple):
    """Phase 1's verdict: which of the frame's entities are retained."""

    req_addrs: np.ndarray
    taxi_addrs: np.ndarray
    prev_r_rows: np.ndarray
    """Previous-frame row of each request (meaningful where retained)."""
    prev_t_rows: np.ndarray
    """Previous-frame row of each taxi (meaningful where retained)."""
    new_r_rows: np.ndarray
    ret_r_rows: np.ndarray
    new_t_rows: np.ndarray
    ret_t_rows: np.ndarray


class _Facts(NamedTuple):
    """Phase 2's fused facts, in this frame's order, with id bounds."""

    taxi_ids: np.ndarray
    tfacts: np.ndarray
    taxi_ids_ascending: bool
    req_ids: np.ndarray
    rfacts: np.ndarray
    req_ids_ascending: bool
    ids_bound: float
    counts_bound: float


class _Edges(NamedTuple):
    """Phase 3's acceptable edges: taxi row, request row, both scores."""

    ti: np.ndarray
    rj: np.ndarray
    pick: np.ndarray
    driver: np.ndarray


class _Solved(NamedTuple):
    """Phase 4's result: the pack permutation and the rounds' outcome."""

    order: np.ndarray
    """Edge index of each CSR slot (the canonical pack permutation)."""
    partner: np.ndarray
    """Proposer position each reviewer holds (or :data:`NO_PARTNER`)."""
    final_choice: np.ndarray
    """Per proposer, one past the CSR slot of its last proposal."""


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


def _taxi_facts(
    taxis: Sequence[Taxi], config: DispatchConfig, alpha_by_taxi: Mapping[int, float] | None
) -> np.ndarray:
    """The ``(k, 4)`` fact rows x, y, seats, α of ``taxis``.

    One C-level loop reads x, y and seats; α is ``config.alpha``, or the
    map's value where it names the taxi.
    """
    k = len(taxis)
    facts = np.empty((k, 4), dtype=np.float64)
    facts[:, :_TALPHA] = np.fromiter(
        (v for t in taxis for v in (t.location.x, t.location.y, t.seats)),
        dtype=np.float64,
        count=3 * k,
    ).reshape(k, 3)
    if alpha_by_taxi is None:
        facts[:, _TALPHA] = config.alpha
    else:
        facts[:, _TALPHA] = np.fromiter(
            (alpha_by_taxi.get(t.taxi_id, config.alpha) for t in taxis),
            dtype=np.float64,
            count=k,
        )
    return facts


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
    tfacts = _taxi_facts(taxis, config, alpha_by_taxi)
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
    )


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
    """Solve one frame warm: churn strips, proposer-only pack, shared GS rounds.

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
    ``warm_fallbacks`` telemetry event.  A non-finite coordinate raises
    the cold frame's ``ValueError``.
    """
    churn = _classify_churn(state, taxis, requests)
    facts = _entity_facts(
        state, churn, taxis, requests, oracle, config, alpha_by_taxi, on_new_trips
    )
    edges = _churn_strips(churn, facts, oracle, config)
    solved = _pack_and_solve(edges, facts, optimize_for)
    return _egress(churn, facts, edges, solved, taxis, requests, optimize_for)


def _classify_churn(
    state: FrameSolveState, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
) -> _Churn:
    """Phase 1: an entity is retained iff its address is in the state's
    unmatched index (the same live object the previous frame left
    unmatched); every other entity is new."""
    req_addrs = _addrs_of(requests)
    ret_r, req_pos = _sorted_member_rows(state.req_addr_sorted, req_addrs)
    prev_r_rows = state.req_addr_rows[req_pos] if state.req_addr_rows.size else req_pos
    taxi_addrs = _addrs_of(taxis)
    ret_t, taxi_pos = _sorted_member_rows(state.taxi_addr_sorted, taxi_addrs)
    prev_t_rows = state.taxi_addr_rows[taxi_pos] if state.taxi_addr_rows.size else taxi_pos
    return _Churn(
        req_addrs=req_addrs,
        taxi_addrs=taxi_addrs,
        prev_r_rows=prev_r_rows,
        prev_t_rows=prev_t_rows,
        new_r_rows=np.flatnonzero(~ret_r),
        ret_r_rows=np.flatnonzero(ret_r),
        new_t_rows=np.flatnonzero(~ret_t),
        ret_t_rows=np.flatnonzero(ret_t),
    )


def _fused(
    prev_ids: np.ndarray,
    prev_facts: np.ndarray,
    prev_rows: np.ndarray,
    ret_rows: np.ndarray,
    new_rows: np.ndarray,
    new_ids: np.ndarray,
    new_facts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One side's ``(ids, facts)`` in frame order: the retained rows
    gathered from the previous frame's arrays, the new rows filled in."""
    n = ret_rows.size + new_rows.size
    ids = np.empty(n, dtype=np.int64)
    facts = np.empty((n, 4), dtype=np.float64)
    if ret_rows.size:
        src = prev_rows[ret_rows]
        ids[ret_rows] = prev_ids[src]
        facts[ret_rows] = prev_facts[src]
    ids[new_rows] = new_ids
    facts[new_rows] = new_facts
    return ids, facts


def _ids_ascending(ids: np.ndarray, what: str) -> bool:
    """Whether ``ids`` ascend strictly; raises on a repeated id.

    The engines present both sides in ascending id order, making the
    uniqueness check one vectorized comparison; the general path
    (unsorted but unique is fine) only runs on hand-built frames.
    """
    if ids.size < 2 or bool(np.all(ids[1:] > ids[:-1])):
        return True
    if np.unique(ids).size != ids.size:
        raise WarmStartError(f"duplicate {what} ids in frame", reason="duplicate-ids")
    return False


def _entity_facts(
    state: FrameSolveState,
    churn: _Churn,
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    oracle: DistanceOracle,
    config: DispatchConfig,
    alpha_by_taxi: Mapping[int, float] | None,
    on_new_trips: Callable[[np.ndarray, np.ndarray], None] | None,
) -> _Facts:
    """Phase 2: the fused fact matrices, extracting only the new entities.

    Retained rows were bounded when they first entered a state, so only
    the new entities update the carried bounds; one scalar comparison
    per frame replaces the full scans.  The new requests' trips are the
    frame's only trip computation, one exact ``paired`` call.
    """
    new_taxis = [taxis[i] for i in churn.new_t_rows.tolist()]
    k = len(new_taxis)
    new_tids = np.fromiter((t.taxi_id for t in new_taxis), dtype=np.int64, count=k)
    new_tfacts = _taxi_facts(new_taxis, config, alpha_by_taxi)
    if bool(np.any(new_tfacts[:, _TALPHA] < 0.0)):
        raise WarmStartError("negative alpha in frame", reason="bad-alpha")
    taxi_ids, tfacts = _fused(
        state.taxi_ids,
        state.tfacts,
        churn.prev_t_rows,
        churn.ret_t_rows,
        churn.new_t_rows,
        new_tids,
        new_tfacts,
    )
    taxi_ids_ascending = _ids_ascending(taxi_ids, "taxi")

    new_requests = [requests[j] for j in churn.new_r_rows.tolist()]
    k = len(new_requests)
    new_rids = np.fromiter((r.request_id for r in new_requests), dtype=np.int64, count=k)
    new_rfacts = np.empty((k, 4), dtype=np.float64)
    if k:
        new_rfacts[:, : _RY + 1] = as_point_array(
            [r.pickup for r in new_requests], check_finite=False
        )
        new_rfacts[:, _RPARTY] = np.fromiter(
            (r.passengers for r in new_requests), dtype=np.float64, count=k
        )
        new_rfacts[:, _RTRIP] = oracle_paired(
            oracle,
            sources=new_rfacts[:, : _RY + 1],
            targets=as_point_array([r.dropoff for r in new_requests], check_finite=False),
            exact=True,
        )
        if on_new_trips is not None:
            on_new_trips(new_rids, new_rfacts[:, _RTRIP])
    req_ids, rfacts = _fused(
        state.req_ids,
        state.rfacts,
        churn.prev_r_rows,
        churn.ret_r_rows,
        churn.new_r_rows,
        new_rids,
        new_rfacts,
    )
    req_ids_ascending = _ids_ascending(req_ids, "request")

    # Ids ride in the complex keys' imaginary float64 lane and counts in
    # fact-matrix lanes; both must stay integer-exact.  The carried
    # bounds cover every entity this state chain has seen (cold seeds
    # scan their full arrays), so two scalar comparisons suffice.
    ids_bound = max(state.ids_bound, _abs_max(new_tids), _abs_max(new_rids))
    counts_bound = max(
        state.counts_bound,
        _abs_max(new_tfacts[:, _TSEATS]),
        _abs_max(new_rfacts[:, _RPARTY]),
    )
    if ids_bound >= _FLOAT_EXACT:
        raise WarmStartError("frame id exceeds float-exact range", reason="id-overflow")
    if counts_bound >= _FLOAT_EXACT:
        raise WarmStartError("frame count exceeds float-exact range", reason="id-overflow")
    return _Facts(
        taxi_ids=taxi_ids,
        tfacts=tfacts,
        taxi_ids_ascending=taxi_ids_ascending,
        req_ids=req_ids,
        rfacts=rfacts,
        req_ids_ascending=req_ids_ascending,
        ids_bound=ids_bound,
        counts_bound=counts_bound,
    )


def _churn_strips(
    churn: _Churn, facts: _Facts, oracle: DistanceOracle, config: DispatchConfig
) -> _Edges:
    """Phase 3: the frame's entire edge set, from the two churn strips.

    Strip A: new taxis × all requests.  Strip B: retained taxis × new
    requests.  Retained × retained is empty by the stability theorem.
    """
    strips: list[_Edges] = []
    if churn.new_t_rows.size and facts.req_ids.size:
        strips.append(_score_strip(facts, oracle, config, churn.new_t_rows, None))
    if churn.ret_t_rows.size and churn.new_r_rows.size:
        strips.append(_score_strip(facts, oracle, config, churn.ret_t_rows, churn.new_r_rows))
    if not strips:
        no_rows, no_scores = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        return _Edges(no_rows, no_rows, no_scores, no_scores)
    ti, rj, pick, driver = (np.concatenate(column) for column in zip(*strips))
    return _Edges(ti, rj, pick, driver)


def _score_strip(
    facts: _Facts,
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
    rfacts = facts.rfacts if r_block is None else facts.rfacts[r_block]
    tfacts = facts.tfacts[t_block]
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


def _pack_and_solve(edges: _Edges, facts: _Facts, optimize_for: str) -> _Solved:
    """Phase 4: the proposer-only canonical pack and the shared GS rounds.

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
    n_taxis, n_requests = facts.taxi_ids.size, facts.req_ids.size
    idx_small = max(n_taxis, n_requests) <= 32767
    if optimize_for == "taxi":
        prop_rows, rev_rows = ti, rj
        n_prop, n_rev = n_taxis, n_requests
        prop_score = edges.driver
        partner_tie = (
            rj.astype(np.int16)
            if (idx_small and facts.req_ids_ascending)
            else facts.req_ids[rj]
        )
        rev_score = edges.pick
        rev_tie_ids = facts.taxi_ids
    else:
        prop_rows, rev_rows = rj, ti
        n_prop, n_rev = n_requests, n_taxis
        prop_score = edges.pick
        partner_tie = (
            ti.astype(np.int16)
            if (idx_small and facts.taxi_ids_ascending)
            else facts.taxi_ids[ti]
        )
        rev_score = edges.driver
        rev_tie_ids = facts.req_ids
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
    facts: _Facts,
    edges: _Edges,
    solved: _Solved,
    taxis: Sequence[Taxi],
    requests: Sequence[PassengerRequest],
    optimize_for: str,
) -> tuple[
    Matching,
    tuple[np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray],
    IncrementalBuildStats,
    FrameSolveState,
]:
    """Phase 5: :func:`warm_frame_solve`'s return value."""
    taxi_ids, req_ids = facts.taxi_ids, facts.req_ids
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
    matched_legs = (pick_pair[row_order], facts.rfacts[matched_rows[1], _RTRIP])

    stats = IncrementalBuildStats(
        n_taxis=n_taxis,
        n_requests=n_requests,
        retained_taxis=int(churn.ret_t_rows.size),
        retained_requests=int(churn.ret_r_rows.size),
        pairs_scored=int(churn.new_t_rows.size) * n_requests
        + int(churn.ret_t_rows.size) * int(churn.new_r_rows.size),
        full_pairs=n_taxis * n_requests,
    )

    req_addr_sorted, req_addr_rows = _unmatched_addr_index(
        churn.req_addrs, matched_rows[1], n_requests
    )
    taxi_addr_sorted, taxi_addr_rows = _unmatched_addr_index(
        churn.taxi_addrs, matched_rows[0], n_taxis
    )
    new_state = FrameSolveState(
        req_ids=req_ids,
        req_addr_sorted=req_addr_sorted,
        req_addr_rows=req_addr_rows,
        req_objs=list(requests),
        rfacts=facts.rfacts,
        taxi_ids=taxi_ids,
        taxi_addr_sorted=taxi_addr_sorted,
        taxi_addr_rows=taxi_addr_rows,
        taxi_objs=list(taxis),
        tfacts=facts.tfacts,
        ids_bound=facts.ids_bound,
        counts_bound=facts.counts_bound,
    )
    return matching, matched_rows, matched_legs, stats, new_state
