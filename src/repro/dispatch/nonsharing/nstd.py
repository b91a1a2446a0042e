"""NSTD-P and NSTD-T: the paper's stable non-sharing dispatchers.

``NSTD-P`` runs Algorithm 1 directly (passenger-optimal).  ``NSTD-T``
selects the taxi-optimal stable matching by the taxi-proposing run,
which equals Algorithm 2's taxi-best pick (see
:mod:`repro.matching.optimality`).

Every cold frame is compiled into
:class:`~repro.matching.arrays.PreferenceArrays` by the dense pair
builder (no per-pair dicts), and both modes match the arrays with the
array deferred-acceptance engine.  The **warm path** (below) feeds the
cold engine's Gale–Shapley round kernel
(:func:`~repro.matching.deferred_acceptance.gale_shapley_rounds`)
complex keys.

The cold build and the auditor's rebuild read the pickup matrix and
trip distances from the dispatcher's
:meth:`~repro.dispatch.base.Dispatcher.distance_cache` (the engine's
frame cache, or a per-call one outside an engine).  The warm solver's
operands come from it too: gathered from the run's columns inside an
engine, built from the objects outside one.

``warm_start=True`` additionally carries solver state across frames
through the warm frame solver
(:mod:`repro.matching.warm_frame`): only churn-proportional distance
strips are scored (never the full taxi × request pickup kernel), the
retained entities' facts ride along as fused arrays, and the stable
matching is recomputed by the shared Gale–Shapley rounds on complex
suitor keys, bit-identical to the cold solve.  Warm frames ship a
:class:`~repro.dispatch.base.PackedSingleSchedule` carrying the
solver's matched rows and pickup legs.  Any frame whose state fails a
warm precondition falls back to a cold solve transparently;
:meth:`NSTDDispatcher.run_telemetry` reports warm/cold frame counts,
fallbacks, and rebuild fractions.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import ClassVar

import numpy as np

from repro.core.config import DispatchConfig
from repro.core.errors import WARM_FALLBACK_OTHER, WARM_FALLBACK_REASONS, WarmStartError
from repro.core.types import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher, PackedSingleSchedule, single_assignment
from repro.geometry.distance import DistanceOracle
from repro.matching.arrays import PreferenceArrays
from repro.matching.optimality import passenger_optimal, taxi_optimal
from repro.matching.preferences import build_nonsharing_arrays
from repro.matching.result import Matching
from repro.matching.warm_frame import (
    FrameOperands,
    FrameSolveState,
    frame_state_from_cold,
    warm_frame_solve,
)

__all__ = ["NSTDDispatcher", "nstd_p", "nstd_t"]


def _reason_key(reason: str) -> str:
    """Cap telemetry reasons to the enumerated set (``other`` otherwise).

    Keeps the ``warm_fallback_<reason>`` / ``warm_invalidation_<reason>``
    key universe of ``perf_stats()`` bounded and deterministic across
    runs, whatever a future solver decides to raise.
    """
    return reason if reason in WARM_FALLBACK_REASONS else WARM_FALLBACK_OTHER


class NSTDDispatcher(Dispatcher):
    """Non-Sharing Taxi Dispatch via stable matching (Algorithms 1 and 2).

    Run telemetry: ``warm_frames`` / ``cold_frames`` partition the
    dispatched frames; ``warm_fallbacks`` counts warm frames that redid
    a cold solve after a failed precondition (``warm_fallback_<reason>``
    says why).  The pair/strip totals give the aggregate rebuild
    fraction — the share of the full taxi × request work the warm
    builder actually performed.
    """

    _NAMES = {"passenger": "NSTD-P", "taxi": "NSTD-T"}

    #: The declared durability contract (enforced by repro-lint REP008):
    #: cross-frame attributes this dispatcher mutates but deliberately
    #: does NOT persist in :meth:`state_payload`, each with the reason
    #: it is safe to drop.  Checkpoints are written at frame boundaries
    #: and a resumed run's first frame always solves cold (the engine
    #: calls ``reset_warm_state`` before resuming), so derived solver
    #: state rebuilds itself and nothing here can change the matching.
    DURABILITY_EXCLUSIONS: ClassVar[dict[str, str]] = {
        "_warm_state": (
            "derived per-frame solver state; a resumed run's first frame "
            "solves cold and reseeds it (bit-identical by the warm-start "
            "equivalence contract)"
        ),
        "last_frame_mode": (
            "label of the previous frame's solve path, rewritten by every "
            "dispatched frame before the auditor reads it"
        ),
    }

    def __init__(
        self,
        oracle: DistanceOracle,
        config: DispatchConfig | None = None,
        *,
        optimize_for: str = "passenger",
        alpha_by_taxi: Mapping[int, float] | None = None,
        warm_start: bool = False,
    ):
        super().__init__(oracle, config)
        if optimize_for not in self._NAMES:
            raise ValueError(
                f"optimize_for must be one of {sorted(self._NAMES)}, got {optimize_for!r}"
            )
        self.optimize_for = optimize_for
        self.alpha_by_taxi = dict(alpha_by_taxi) if alpha_by_taxi else None
        self.warm_start = warm_start
        self.name = self._NAMES[optimize_for]
        self._warm_state: FrameSolveState | None = None

    # -- warm-start lifecycle ---------------------------------------------

    def reset_warm_state(self, *, counters: bool = False) -> None:
        """Drop the carried frame state (and optionally run counters).

        Called by the simulation engine at run start (``counters=True``)
        and after any frame answered by a degradation-ladder fallback,
        which breaks the consecutive-frame invariant the state encodes.
        """
        super().reset_warm_state(counters=counters)
        self._warm_state = None

    def invalidate_warm_state(self, *, reason: str = "external") -> None:
        """Drop the carried frame state as *suspect* and count why.

        The stability auditor calls this (``reason="audit-divergence"``)
        when a re-verified fast-path frame shipped blocking pairs: the
        carried state can no longer be trusted, so the next frame solves
        cold and reseeds.  Reasons outside the enumerated set collapse
        to the ``other`` bucket, keeping telemetry keys bounded.
        """
        self._bump(f"warm_invalidation_{_reason_key(reason)}")
        self.reset_warm_state()

    def audit_preferences(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> PreferenceArrays:
        """The frame's preference arrays, rebuilt by the cold path.

        Reads the distance cache (exact by contract) but never touches
        the carried warm state, so the result is a state-independent
        oracle for the auditor.
        """
        return self._cold_prefs(taxis, requests)[0]

    def _cold_prefs(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> tuple[PreferenceArrays, np.ndarray]:
        """The frame's cold preference arrays, built by
        :func:`build_nonsharing_arrays` from the distance cache's pickup
        matrix and trip vector.

        Also returns the trip vector.
        """
        cache = self.distance_cache()
        pickup_matrix = cache.pickup_matrix(taxis, requests)
        trip_km = cache.trip_km(requests)
        prefs = build_nonsharing_arrays(
            taxis,
            requests,
            self.oracle,
            self.config,
            alpha_by_taxi=self.alpha_by_taxi,
            pickup_matrix=pickup_matrix,
            trip_km=trip_km,
        )
        return prefs, trip_km

    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        schedule = DispatchSchedule()
        if not taxis or not requests:
            # The carried warm state stays put: nothing was solved, and
            # only arrivals can happen before the next non-empty frame,
            # so churn classification against it remains sound.
            return schedule
        self.checkpoint("nstd:start")
        if self.warm_start:
            warm = self._dispatch_warm(taxis, requests)
            if warm is not None:
                self.checkpoint("nstd:matched")
                # The solver hands back the matched (taxi, request) rows
                # already sorted by request id, indexing straight into
                # this frame's sequences, plus each pair's exact pickup
                # leg.  The schedule ships them verbatim: the engine
                # executes the rows directly (it validates every
                # schedule it executes), and any other consumer
                # materializes ordinary assignments lazily.
                (t_rows, r_rows), pick_legs = warm
                return PackedSingleSchedule(taxis, requests, t_rows, r_rows, pickup_km=pick_legs)
        matching = self._dispatch_cold(taxis, requests)
        self.checkpoint("nstd:matched")
        taxis_by_id = {t.taxi_id: t for t in taxis}
        requests_by_id = {r.request_id: r for r in requests}
        for request_id, taxi_id in sorted(matching.pairs):
            schedule.add(single_assignment(taxis_by_id[taxi_id], requests_by_id[request_id]))
        return self._validated(schedule, taxis, requests)

    def _dispatch_cold(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> Matching:
        """The stateless frame solve (the pre-warm-start behaviour)."""
        self.last_frame_mode = "cold"
        prefs, trip_km = self._cold_prefs(taxis, requests)
        self.checkpoint("nstd:prefs-built")
        if self.optimize_for == "passenger":
            matching = passenger_optimal(prefs)
        else:
            matching = taxi_optimal(prefs)
        if self.warm_start:
            # Cold frame of a warm-started run (first frame, or a warm
            # precondition failed): seed the next frame's warm state
            # from the frame's own facts.
            self._warm_state = frame_state_from_cold(
                self._frame_operands(taxis, requests, trip_km), matching
            )
        return matching

    def _frame_operands(
        self,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        trip_km: np.ndarray | None = None,
    ) -> FrameOperands:
        """The frame's warm-solver operands, from the distance cache
        (``trip_km``: the frame's trips, if already read)."""
        return self.distance_cache().frame_operands(
            taxis,
            requests,
            alpha=self.config.alpha,
            alpha_by_taxi=self.alpha_by_taxi,
            trip_km=trip_km,
        )

    def _dispatch_warm(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray] | None:
        """One frame through the warm frame solver.

        Crucially this path never touches the full taxi × request pickup
        kernel — only the churn strips are scored — and, inside an
        engine, walks no entity object: the frame's operands are gathers
        over the run's columns.

        Returns the solver's matched ``(taxi_rows, request_rows)`` and
        the matched pairs' pickup legs, or ``None`` when the frame must
        be solved cold instead: there is no carried state yet, or the
        state failed a warm precondition (counted as a fallback, and the
        state is dropped).
        """
        state = self._warm_state
        if state is not None:
            try:
                _, matched_rows, pick_legs, build_stats, new_state = warm_frame_solve(
                    state,
                    self._frame_operands(taxis, requests),
                    self.oracle,
                    self.config,
                    optimize_for=self.optimize_for,
                )
            except WarmStartError as exc:
                # The frame failed a warm precondition; redo it cold.
                self._bump("warm_fallbacks")
                self._bump(f"warm_fallback_{_reason_key(exc.reason)}")
                self._warm_state = None
            else:
                self.checkpoint("nstd:prefs-built")
                self.last_frame_mode = "warm"
                self._warm_state = new_state
                self._bump("warm_frames")
                self._bump("pairs_scored_warm", build_stats.pairs_scored)
                self._bump("full_pairs_warm", build_stats.full_pairs)
                return matched_rows, pick_legs
        self._bump("cold_frames")
        return None


def nstd_p(oracle: DistanceOracle, config: DispatchConfig | None = None) -> NSTDDispatcher:
    """The passenger-optimal stable dispatcher (Algorithm 1)."""
    return NSTDDispatcher(oracle, config, optimize_for="passenger")


def nstd_t(oracle: DistanceOracle, config: DispatchConfig | None = None) -> NSTDDispatcher:
    """The taxi-optimal stable dispatcher (Algorithms 1 + 2)."""
    return NSTDDispatcher(oracle, config, optimize_for="taxi")
