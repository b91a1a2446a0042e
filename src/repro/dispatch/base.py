"""Dispatcher interface and assignment construction helpers.

A dispatcher sees one frame's idle taxis and pending requests and
returns a :class:`DispatchSchedule`; the simulation engine owns taxi
motion and request queueing across frames.  Dispatchers are constructed
once with their distance oracle and :class:`DispatchConfig` and are
stateless across frames by default (the engine may re-run a frame
during tests).  A dispatcher that opts into warm-start acceleration
carries frame-to-frame solver state; the engine owns its lifecycle
through :meth:`Dispatcher.reset_warm_state` (called at run start and
whenever a degradation-ladder fallback answered a frame, which breaks
the consecutive-frame invariant the state relies on).

Every dispatcher reads its frame's distances from one place,
:meth:`Dispatcher.distance_cache`: the engine's installed frame cache,
or a per-call cache of its own when dispatched outside an engine.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.core.config import DispatchConfig
from repro.core.errors import DispatchError
from repro.core.types import (
    Assignment,
    DispatchSchedule,
    PassengerRequest,
    RideGroup,
    RouteStop,
    Taxi,
)
from repro.geometry.distance import DistanceOracle

if TYPE_CHECKING:  # imported lazily to avoid a dispatch <-> simulation cycle
    import numpy as np

    from repro.matching.arrays import PreferenceArrays
    from repro.resilience.budget import FrameBudget
    from repro.simulation.frame_cache import FrameDistanceCache

__all__ = [
    "Dispatcher",
    "PackedSingleSchedule",
    "single_assignment",
    "group_assignment",
]


class Dispatcher(abc.ABC):
    """Base class of every dispatch algorithm in the evaluation."""

    #: Short identifier used in experiment reports (e.g. "NSTD-P").
    name: str = "base"

    #: The run's per-frame distance memo, installed by the simulation
    #: engine (which also invalidates it every frame) and detached after
    #: the run.  Dispatchers never read it directly: :meth:`distance_cache`
    #: is the one place a frame's distances come from, inside an engine
    #: or not.
    frame_cache: "FrameDistanceCache | None" = None

    #: Optional frame deadline, installed by the simulation engine when a
    #: resilience policy is active.  Dispatchers call :meth:`checkpoint`
    #: at stage boundaries; with no budget installed a checkpoint is a
    #: no-op, so instrumented dispatchers behave identically outside the
    #: resilience path.
    frame_budget: "FrameBudget | None" = None

    #: Which solve path answered the most recent :meth:`dispatch` call
    #: (``"cold"`` or ``"warm"``); ``None`` for dispatchers that do not
    #: report one.  The stability auditor samples only frames with a
    #: mode: they are the ones with a preference model to re-verify.
    last_frame_mode: str | None = None

    def __init__(self, oracle: DistanceOracle, config: DispatchConfig | None = None):
        self.oracle = oracle
        self.config = config if config is not None else DispatchConfig()
        self.frame_cache = None
        self.frame_budget = None
        self._telemetry: dict[str, float | int] = {}

    def distance_cache(self) -> "FrameDistanceCache":
        """The frame's distance source: the installed ``frame_cache``.

        Outside an engine (no cache installed) this is a fresh
        :class:`~repro.simulation.frame_cache.FrameDistanceCache` over
        the dispatcher's oracle, alive for the one call that asked, so
        a standalone ``dispatch`` computes exactly what the engine's
        cache would.
        """
        if self.frame_cache is not None:
            return self.frame_cache
        # Imported here: repro.simulation imports this module.
        from repro.simulation.frame_cache import FrameDistanceCache

        return FrameDistanceCache(self.oracle)

    def checkpoint(self, label: str | None = None) -> None:
        """Cooperative frame-deadline check (see ``frame_budget``)."""
        budget = self.frame_budget
        if budget is not None:
            budget.checkpoint(label)

    def reset_warm_state(self, *, counters: bool = False) -> None:
        """Discard any frame-to-frame solver state (none by default).

        The engine calls this at the start of every run (with
        ``counters=True``, which also zeroes :meth:`run_telemetry`) and
        after any frame a degradation-ladder fallback answered: warm
        state is only valid between *consecutive* frames solved by this
        dispatcher.
        """
        if counters:
            self._telemetry = {}

    def invalidate_warm_state(self, *, reason: str = "external") -> None:
        """Explicitly drop carried solver state as *suspect*, with a reason.

        Unlike :meth:`reset_warm_state` (a lifecycle call the engine
        makes at known-safe boundaries), this marks the state as
        possibly corrupt — the stability auditor calls it when a
        re-verification finds blocking pairs in a fast-path frame.
        Stateful dispatchers record the reason in run telemetry;
        the default implementation just resets.
        """
        self.reset_warm_state()

    def audit_preferences(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> "PreferenceArrays":
        """The frame's preference structure, rebuilt by the cold path.

        Used by the stability auditor to re-verify a fast-path matching
        against preferences constructed independently of any carried
        solver state.  Dispatchers without a preference model (greedy
        baselines) have nothing to audit and raise.
        """
        raise NotImplementedError(f"{self.name} has no auditable preference model")

    def run_telemetry(self) -> dict[str, float | int]:
        """Counters accumulated over a run, for ``perf_stats()`` reporting.

        Stateless dispatchers have none; warm-start dispatchers report
        warm/cold frame counts and rebuild fractions.  Keys are flat
        and JSON-friendly.
        """
        return dict(self._telemetry)

    def _bump(self, key: str, amount: float | int = 1) -> None:
        """Add ``amount`` to the run counter ``key``."""
        self._telemetry[key] = self._telemetry.get(key, 0) + amount

    def state_payload(self) -> dict[str, Any]:
        """Everything of this dispatcher a checkpoint must round-trip.

        The engine embeds this dict in its frame-boundary snapshots and
        feeds it back through :meth:`restore_state` on crash-recovery
        resume; together the pair owns the durability contract that
        ``repro-lint`` REP008 enforces — every attribute a dispatcher
        mutates across frames is either reachable from here or declared
        (with a reason) in a class-level ``DURABILITY_EXCLUSIONS`` dict.
        The payload is the run telemetry: carried solver state rebuilds
        cold after a resume, bit-identically.
        """
        return {"telemetry": dict(self._telemetry)}

    def restore_state(self, payload: Mapping[str, Any]) -> None:
        """Adopt a :meth:`state_payload` snapshot on crash-recovery resume.

        Must restore everything its :meth:`state_payload` captured;
        tolerate missing keys (payloads written by older schema
        versions are rejected upstream by the checkpoint loader, so a
        missing key here only means "state that did not exist yet").
        A recovered run's telemetry continues from the snapshot instead
        of zero.
        """
        self._telemetry = dict(payload.get("telemetry") or {})

    @abc.abstractmethod
    def dispatch(
        self, taxis: Sequence[Taxi], requests: Sequence[PassengerRequest]
    ) -> DispatchSchedule:
        """Assign idle ``taxis`` to pending ``requests`` for one frame.

        Implementations must leave unassigned requests out of the
        schedule (they stay queued) and must never assign a taxi or
        request twice; the engine validates this and raises
        :class:`DispatchError` on violations.
        """

    def _validated(
        self,
        schedule: DispatchSchedule,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
    ) -> DispatchSchedule:
        try:
            schedule.validate(list(taxis), list(requests))
        except ValueError as exc:
            raise DispatchError(f"{self.name}: {exc}") from exc
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def single_assignment(taxi: Taxi, request: PassengerRequest) -> Assignment:
    """A non-sharing assignment: drive to the pickup, then the dropoff."""
    return Assignment(
        taxi_id=taxi.taxi_id,
        request_ids=(request.request_id,),
        stops=(
            RouteStop(request_id=request.request_id, is_pickup=True, point=request.pickup),
            RouteStop(request_id=request.request_id, is_pickup=False, point=request.dropoff),
        ),
    )


class PackedSingleSchedule(DispatchSchedule):
    """A frame's single-request assignments held as matched row arrays.

    Array egress paths (the warm frame solver) already know the
    matched ``(taxi, request)`` rows into the frame's own ``taxis`` /
    ``requests`` sequences — and, when available, the exact pickup leg
    of every pair.  This schedule carries those arrays
    verbatim so the simulation engine can execute the frame without
    constructing one :class:`Assignment` (three frozen objects) per
    matched pair.  Every other consumer sees a normal
    :class:`DispatchSchedule`: the ``assignments`` list materializes
    lazily on first access through the canonical two-stop constructor.

    The schedule is finalized at construction; do not ``add`` to it —
    the row arrays would not see the appended assignment.

    ``pickup_km`` (when not ``None``) is aligned with the row arrays and
    owes bit-equality with the scalar oracle under the batch-exactness
    contract; consumers may use it in place of ``oracle.distance`` calls
    for the matched pickup legs.  Trip legs are not carried: the engine
    reads them from its run's trip table.
    """

    __slots__ = ("taxis", "requests", "taxi_rows", "request_rows", "pickup_km")

    def __init__(
        self,
        taxis: Sequence[Taxi],
        requests: Sequence[PassengerRequest],
        taxi_rows: "np.ndarray",
        request_rows: "np.ndarray",
        *,
        pickup_km: "np.ndarray | None" = None,
    ):
        # ``assignments`` is intentionally left unset: the slot stays
        # empty until ``__getattr__`` materializes the object view.
        self.taxis = taxis
        self.requests = requests
        self.taxi_rows = taxi_rows
        self.request_rows = request_rows
        self.pickup_km = pickup_km

    def __getattr__(self, name: str) -> list[Assignment]:
        # Reached only when normal lookup fails — i.e. the first read of
        # the never-assigned ``assignments`` slot.
        if name == "assignments":
            materialized = [
                single_assignment(self.taxis[t_row], self.requests[r_row])
                for t_row, r_row in zip(self.taxi_rows.tolist(), self.request_rows.tolist())
            ]
            self.assignments = materialized
            return materialized
        raise AttributeError(name)


def group_assignment(taxi: Taxi, group: RideGroup) -> Assignment:
    """A sharing assignment following the group's precomputed route."""
    return Assignment(
        taxi_id=taxi.taxi_id,
        request_ids=group.request_ids,
        stops=group.route,
    )
