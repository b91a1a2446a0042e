"""Property tests: warm-start matching is bit-identical to cold, always.

Hypothesis drives random multi-frame *churn sequences* that follow the
simulation engine's contract — matched pairs leave together, unmatched
requests persist as the same frozen objects (some expire), matched
taxis go busy and return moved, idle taxis occasionally reposition,
fresh entities arrive — and asserts the warm-start machinery agrees
with a cold solve on everything observable, at each of its layers:

* the warm-started :class:`~repro.dispatch.nonsharing.nstd.
  NSTDDispatcher` produces the *identical* schedule to a stateless one
  on every frame of every sequence, for both the passenger- and
  taxi-optimal modes, under a homogeneous or a per-driver α, with zero
  fallbacks (the emulated churn never breaks a warm precondition);
* :func:`~repro.matching.incremental.incremental_nonsharing_arrays`
  rebuilds a *structurally identical* :class:`~repro.matching.arrays.
  PreferenceArrays` from churn-sized strips (every field, not just the
  matching);
* :func:`~repro.matching.incremental.resume_deferred_acceptance`
  reaches the same stable matching as a cold solve, or raises
  :class:`~repro.core.errors.WarmStartError` — in which case the
  documented fallback (a cold solve) restores identity.

Frames use integer coordinates with integer θ/2θ dummy thresholds so
candidates regularly land *exactly* on the acceptability boundary, and
the churn emulation deliberately produces empty-side frames (no idle
taxis, or a drained queue) which the dispatcher must skip without
corrupting its carried state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import DispatchConfig, PassengerRequest, Taxi
from repro.core.errors import WarmStartError
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance, Point
from repro.matching import (
    WarmFrameState,
    build_nonsharing_arrays,
    classify_frame_churn,
    deferred_acceptance_arrays,
    deferred_acceptance_resumable,
    incremental_nonsharing_arrays,
    resume_deferred_acceptance,
)

ORACLE = EuclideanDistance()

# Unthresholded, and two θ / 2θ operating points whose integer
# thresholds sit on exact integer-grid distances.
CONFIGS = (
    DispatchConfig(),
    DispatchConfig(passenger_threshold_km=2.0, taxi_threshold_km=4.0),
    DispatchConfig(passenger_threshold_km=1.0, taxi_threshold_km=2.0),
)

ARRAY_FIELDS = (
    "proposer_ids",
    "reviewer_ids",
    "proposer_indptr",
    "proposer_list",
    "proposer_list_rank",
    "reviewer_indptr",
    "reviewer_list",
    "reviewer_list_rank",
    "proposer_rank",
    "reviewer_rank",
)


class ChurnWorld:
    """Engine-contract frame churn, driven by a seeded RNG.

    Mirrors what the simulation engine presents to the dispatcher:
    retained requests are the *same objects* frame over frame, a taxi
    that stayed idle and unmoved is the same object (the engine
    memoizes snapshots on the location object), matched entities leave
    together, and busy taxis return later as fresh objects at new
    positions.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.taxis: dict[int, Taxi] = {}
        self.busy: dict[int, int] = {}
        self.queue: list[PassengerRequest] = []
        self.next_taxi = 0
        self.next_request = 0

    def _point(self) -> Point:
        return Point(float(self.rng.integers(-4, 5)), float(self.rng.integers(-4, 5)))

    def step(self, frame: int) -> tuple[list[Taxi], list[PassengerRequest]]:
        rng = self.rng
        for tid in [t for t, back in self.busy.items() if back <= frame]:
            del self.busy[tid]
            self.taxis[tid] = Taxi(tid, self._point())  # returned: moved
        for _ in range(int(rng.integers(0, 3))):
            self.taxis[self.next_taxi] = Taxi(
                self.next_taxi, self._point(), seats=int(rng.integers(1, 5))
            )
            self.next_taxi += 1
        for tid in list(self.taxis):
            if rng.random() < 0.15:  # repositioning rebinds the snapshot
                self.taxis[tid] = Taxi(tid, self._point(), seats=self.taxis[tid].seats)
        self.queue = [r for r in self.queue if rng.random() > 0.2]  # expiries
        for _ in range(int(rng.integers(0, 4))):
            self.queue.append(
                PassengerRequest(
                    self.next_request,
                    self._point(),
                    self._point(),
                    passengers=int(rng.integers(1, 5)),
                )
            )
            self.next_request += 1
        if rng.random() < 0.1:
            self.queue = []  # drained-queue boundary frame
        return list(self.taxis.values()), list(self.queue)

    def absorb(self, served_requests: set, dispatched_taxis: set, frame: int) -> None:
        """Matched pairs leave together; taxis return a few frames on."""
        self.queue = [r for r in self.queue if r.request_id not in served_requests]
        for tid in dispatched_taxis:
            del self.taxis[tid]
            self.busy[tid] = frame + 1 + int(self.rng.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_frames=st.integers(min_value=2, max_value=7),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
    mode=st.sampled_from(["passenger", "taxi"]),
    # Per-driver α for the first taxi ids (later ids fall back to
    # config.alpha = 1.0), or None for the homogeneous market.
    alphas=st.none()
    | st.lists(st.sampled_from([0.0, 0.5, 2.0, 4.0]), min_size=4, max_size=16),
)
def test_warm_dispatcher_identical_to_cold_over_churn(
    seed, n_frames, config_index, mode, alphas
):
    config = CONFIGS[config_index]
    alpha_by_taxi = None if alphas is None else dict(enumerate(alphas))
    warm = NSTDDispatcher(
        ORACLE, config, optimize_for=mode, alpha_by_taxi=alpha_by_taxi, warm_start=True
    )
    cold = NSTDDispatcher(ORACLE, config, optimize_for=mode, alpha_by_taxi=alpha_by_taxi)
    world = ChurnWorld(np.random.default_rng(seed))
    solved_any = False
    for frame in range(n_frames):
        taxis, requests = world.step(frame)
        warm_schedule = warm.dispatch(taxis, requests)
        cold_schedule = cold.dispatch(taxis, requests)
        assert [
            (a.taxi_id, a.request_ids, a.stops) for a in warm_schedule.assignments
        ] == [(a.taxi_id, a.request_ids, a.stops) for a in cold_schedule.assignments]
        world.absorb(
            warm_schedule.served_request_ids, warm_schedule.dispatched_taxi_ids, frame
        )
        solved_any = solved_any or bool(taxis and requests)
    telemetry = warm.run_telemetry()
    # The engine-contract churn never breaks a warm precondition: every
    # non-empty frame after the first is answered warm.
    assert telemetry.get("warm_fallbacks", 0) == 0
    if solved_any:
        assert telemetry.get("warm_frames", 0) + telemetry.get("cold_frames", 0) >= 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_frames=st.integers(min_value=2, max_value=6),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_incremental_arrays_and_resume_identical(seed, n_frames, config_index):
    config = CONFIGS[config_index]
    world = ChurnWorld(np.random.default_rng(seed))
    state = da_state = None
    for frame in range(n_frames):
        taxis, requests = world.step(frame)
        if not taxis or not requests:
            continue  # the dispatcher skips empty frames; so does this loop
        cold_arrays = build_nonsharing_arrays(taxis, requests, ORACLE, config)
        cold_matching = deferred_acceptance_arrays(cold_arrays)
        alphas = {t.taxi_id: config.alpha for t in taxis}
        if state is None:
            matching, _, da_state = deferred_acceptance_resumable(cold_arrays)
        else:
            churn = classify_frame_churn(state, taxis, requests, alphas=alphas)
            warm_arrays, stats = incremental_nonsharing_arrays(
                state, taxis, requests, ORACLE, config, churn=churn
            )
            # Structural identity: every field, not merely the matching.
            for field in ARRAY_FIELDS:
                assert np.array_equal(
                    getattr(warm_arrays, field), getattr(cold_arrays, field)
                ), field
            assert 0 <= stats.pairs_scored <= stats.full_pairs
            try:
                matching, _, da_state = resume_deferred_acceptance(
                    da_state,
                    warm_arrays,
                    retained_proposer_ids={
                        int(requests[i].request_id) for i in churn.retained_requests
                    },
                    retained_reviewer_ids={
                        int(taxis[i].taxi_id) for i in churn.retained_taxis
                    },
                )
            except WarmStartError:
                # A legitimately unreachable seed (e.g. a new taxi that
                # outranks an already-proposed one): the documented
                # fallback is a cold solve, which must restore identity.
                matching, _, da_state = deferred_acceptance_resumable(cold_arrays)
        assert matching.pairs == cold_matching.pairs
        state = WarmFrameState.from_frame(
            taxis, requests, matching, alphas=alphas, da_state=da_state
        )
        world.absorb(
            {p for p, _ in matching.pairs}, {t for _, t in matching.pairs}, frame
        )
