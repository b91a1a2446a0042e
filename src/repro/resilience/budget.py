"""Frame deadlines and work budgets for the resilience layer.

The paper dispatches in hard one-minute frames: a production broker
must emit *some* schedule before the frame closes, so every expensive
stage needs a way to notice that it is running out of time (or work)
and stop early.  Two budget primitives cover all call sites:

* :class:`FrameBudget` — a wall-clock deadline, checked through
  **cooperative checkpoints**: dispatchers call
  :meth:`FrameBudget.checkpoint` at stage boundaries and the budget
  raises :class:`~repro.core.errors.FrameBudgetExceededError` once the
  deadline has passed.  The clock is injectable so tests (and the
  fault-injection harness, which maintains a deterministic virtual
  clock) can exercise overruns without real sleeping.
* :class:`WorkBudget` — a node/step counter with an optional attached
  frame deadline, consumed by the *anytime* exponential paths (lattice
  enumeration, feasible-group enumeration, set packing).  Exhaustion is
  reported by return value (``spend() -> bool``), never by exception,
  so those paths can return their best-so-far result with a
  ``truncated`` flag.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

from repro.core.errors import FrameBudgetExceededError

__all__ = ["FrameBudget", "WorkBudget"]


class FrameBudget:
    """A wall-clock deadline measured from construction (or ``restart``).

    ``duration_s`` may be ``math.inf`` to express "no deadline" (every
    check passes); the engine uses that for the terminal ladder rung.
    """

    __slots__ = ("duration_s", "clock", "checkpoints", "_start")

    def __init__(
        self, duration_s: float, *, clock: Callable[[], float] = time.perf_counter
    ):
        if duration_s < 0.0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        self.duration_s = float(duration_s)
        self.clock = clock
        self.checkpoints = 0
        self._start = clock()

    def restart(self) -> None:
        """Re-anchor the deadline at the current clock reading."""
        self._start = self.clock()

    def extend_to(self, duration_s: float) -> None:
        """Move the deadline to ``duration_s`` after the original start.

        The degradation ladder gives each successive rung a slightly
        later slice of the same frame; the start anchor is shared so the
        total never exceeds the frame.
        """
        if duration_s < 0.0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        self.duration_s = float(duration_s)

    def elapsed(self) -> float:
        """Seconds since the budget started, on its injected clock."""
        return self.clock() - self._start

    def remaining(self) -> float:
        """Seconds left before the deadline (negative once past it)."""
        return self.duration_s - self.elapsed()

    def expired(self) -> bool:
        """Whether the deadline has passed (checkpoint would raise)."""
        return self.elapsed() > self.duration_s

    def checkpoint(self, label: str | None = None) -> None:
        """Cooperative deadline check; raises once the deadline is past."""
        self.checkpoints += 1
        elapsed = self.elapsed()
        if elapsed > self.duration_s:
            where = f" at {label}" if label else ""
            raise FrameBudgetExceededError(
                f"frame budget of {self.duration_s:.3f}s exceeded{where} "
                f"({elapsed:.3f}s elapsed)",
                elapsed_s=elapsed,
                budget_s=self.duration_s,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrameBudget(duration_s={self.duration_s}, elapsed={self.elapsed():.3f})"


class WorkBudget:
    """A consumable node budget for anytime enumeration/search stages.

    ``spend(n)`` charges ``n`` nodes and returns ``True`` while work may
    continue; once it returns ``False`` the caller stops expanding and
    returns its best-so-far result flagged as truncated.  An attached
    :class:`FrameBudget` deadline is polled on the same calls (without
    raising), so one object expresses both "at most N nodes" and
    "until the frame closes".
    """

    __slots__ = ("max_nodes", "deadline", "nodes", "_exhausted")

    def __init__(
        self, max_nodes: int | None = None, *, deadline: FrameBudget | None = None
    ):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"max_nodes must be non-negative, got {max_nodes}")
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0
        self._exhausted = False

    @property
    def exhausted(self) -> bool:
        """Whether the node budget is spent (sticky once tripped)."""
        if self._exhausted:
            return True
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self._exhausted = True
        elif self.deadline is not None and self.deadline.expired():
            self._exhausted = True
        return self._exhausted

    @property
    def unbounded(self) -> bool:
        """Whether this budget can never exhaust (no node cap, no deadline)."""
        return self.max_nodes is None and (
            self.deadline is None or math.isinf(self.deadline.duration_s)
        )

    def spend(self, nodes: int = 1) -> bool:
        """Charge ``nodes``; ``True`` while the budget still has room."""
        self.nodes += nodes
        return not self.exhausted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkBudget(max_nodes={self.max_nodes}, nodes={self.nodes}, "
            f"exhausted={self.exhausted})"
        )
