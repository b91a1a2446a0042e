"""The degradation ladder: what serves a frame when the primary can't.

Real dispatch platforms degrade rather than fail: when the stable
matching cannot finish inside the frame, they fall back to a cheaper
objective and keep serving (stable matching is the expensive path in
live rideshare loops; high-demand studies show platforms switching to
simpler objectives under load).  The ladder encodes that policy as an
ordered list of rungs:

1. **primary** — whatever dispatcher the simulation was configured
   with, under the frame's primary deadline slice;
2. **nstd-arrays** — passenger-optimal NSTD on the array-native fast
   path, the cheapest full-quality stable matching we have;
3. **nstd-threshold** — NSTD with the passenger threshold tightened to
   ``2θ``, which truncates preference lists (taxis beyond the dummy are
   never ranked) and shrinks the deferred-acceptance market;
4. **greedy** — nearest-idle-taxi, linear-time, **unbudgeted**: the
   terminal rung that guarantees every frame is answered.

Each budgeted rung gets a successively later slice of the same frame
deadline (see :meth:`ResiliencePolicy.rung_deadline_s`), so falling
down the ladder never spends more than the frame.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.config import DispatchConfig
from repro.dispatch.base import Dispatcher
from repro.geometry.distance import DistanceOracle
from repro.resilience.budget import FrameBudget
from repro.resilience.faults import FaultInjector

__all__ = ["Rung", "default_ladder", "ResiliencePolicy"]


@dataclass(frozen=True, slots=True)
class Rung:
    """One fallback level: a name plus a dispatcher factory.

    ``factory`` is ``None`` for the primary rung (the engine substitutes
    its configured dispatcher); the default ladder's factories are
    module-level callables, so its policies pickle like plain values.
    ``budgeted`` rungs observe the frame deadline; the terminal rung
    should be unbudgeted so something always answers the frame.
    """

    name: str
    factory: Callable[[DistanceOracle, DispatchConfig], Dispatcher] | None = None
    budgeted: bool = True


def _nstd_arrays_rung(oracle: DistanceOracle, config: DispatchConfig) -> Dispatcher:
    from repro.dispatch.nonsharing.nstd import NSTDDispatcher

    return NSTDDispatcher(oracle, config, optimize_for="passenger")


def _nstd_thresholded_rung(oracle: DistanceOracle, config: DispatchConfig) -> Dispatcher:
    from repro.dispatch.nonsharing.nstd import NSTDDispatcher

    # Tightening the passenger threshold to 2θ truncates preference
    # lists at the dummy, shrinking the market the matching runs on.
    tight = 2.0 * config.theta_km if config.theta_km > 0.0 else 5.0
    cheap = dataclasses.replace(
        config,
        passenger_threshold_km=min(config.passenger_threshold_km, tight),
        taxi_threshold_km=min(config.taxi_threshold_km, tight),
    )
    return NSTDDispatcher(oracle, cheap, optimize_for="passenger")


def _greedy_rung(oracle: DistanceOracle, config: DispatchConfig) -> Dispatcher:
    from repro.dispatch.nonsharing.greedy import GreedyNearestDispatcher

    return GreedyNearestDispatcher(oracle, config)


def default_ladder() -> tuple[Rung, ...]:
    """NSTD with arrays → distance-thresholded NSTD → greedy (terminal)."""
    return (
        Rung("primary", None),
        Rung("nstd-arrays", _nstd_arrays_rung),
        Rung("nstd-threshold", _nstd_thresholded_rung),
        Rung("greedy", _greedy_rung, budgeted=False),
    )


@dataclass(slots=True)
class ResiliencePolicy:
    """Everything the engine needs to keep frames inside their deadline.

    ``budget_fraction`` is the primary dispatcher's slice of the frame;
    budgeted fallback rungs share the remainder up to
    ``headroom_fraction`` of the frame, after which only the unbudgeted
    terminal rung remains.  ``transient_retries`` bounds same-rung
    retries on :class:`~repro.core.errors.TransientFaultError`.

    ``clock`` (or the fault injector's deterministic virtual clock, when
    one is installed and no explicit clock is given) drives all frame
    budgets, which is what makes chaos runs reproducible.
    """

    budget_fraction: float = 0.5
    headroom_fraction: float = 0.95
    transient_retries: int = 2
    ladder: tuple[Rung, ...] = field(default_factory=default_ladder)
    fault_injector: FaultInjector | None = None
    clock: Callable[[], float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )
        if not 0.0 < self.headroom_fraction <= 1.0:
            raise ValueError(
                f"headroom_fraction must be in (0, 1], got {self.headroom_fraction}"
            )
        if self.transient_retries < 0:
            raise ValueError(
                f"transient_retries must be non-negative, got {self.transient_retries}"
            )
        if not self.ladder:
            raise ValueError("ladder must have at least one rung")

    def with_injector(self, injector: FaultInjector | None) -> "ResiliencePolicy":
        """This policy bound to a (cell-specific) fault injector."""
        return dataclasses.replace(self, fault_injector=injector)

    def resolved_clock(self) -> Callable[[], float]:
        if self.clock is not None:
            return self.clock
        if self.fault_injector is not None:
            return self.fault_injector.clock
        return time.perf_counter

    def primary_budget_s(self, frame_length_s: float) -> float:
        return self.budget_fraction * frame_length_s

    def rung_deadline_s(self, budgeted_position: int, budgeted_count: int, frame_length_s: float) -> float:
        """Deadline (seconds from frame start) for the i-th budgeted rung.

        Budgeted rungs interpolate evenly between the primary slice and
        ``headroom_fraction`` of the frame; an unbudgeted rung gets
        ``inf`` (handled by the caller).
        """
        primary = self.primary_budget_s(frame_length_s)
        if budgeted_position <= 0 or budgeted_count <= 1:
            return primary
        last = max(primary, self.headroom_fraction * frame_length_s)
        step = (last - primary) / budgeted_count
        return primary + step * budgeted_position

    def make_budget(self, frame_length_s: float) -> FrameBudget:
        """A fresh frame budget anchored now, at the primary deadline."""
        return FrameBudget(
            self.primary_budget_s(frame_length_s), clock=self.resolved_clock()
        )

    def build_rungs(
        self, primary: Dispatcher, oracle: DistanceOracle
    ) -> list[tuple[Rung, Dispatcher]]:
        """Instantiate the ladder against the run's oracle and config.

        The primary rung reuses the engine's configured dispatcher;
        fallback dispatchers are constructed once per run and share the
        primary's :class:`~repro.core.config.DispatchConfig`.
        """
        rungs: list[tuple[Rung, Dispatcher]] = []
        for rung in self.ladder:
            if rung.factory is None:
                rungs.append((rung, primary))
            else:
                rungs.append((rung, rung.factory(oracle, primary.config)))
        return rungs
