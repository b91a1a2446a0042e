"""Deterministic fault injection for chaos testing the dispatch loop.

A :class:`FaultInjector` is a seeded source of two fault species a
production O2O broker actually sees:

* **latency spikes** — a distance-oracle call stalls (a slow map
  service, a cold cache).  Injected as *virtual* time on the injector's
  deterministic clock, so chaos tests reproduce bit-for-bit without
  real sleeping; frame budgets driven by :meth:`FaultInjector.clock`
  observe the spike and trigger the degradation ladder.
* **transient oracle errors** — a call fails but a retry may succeed.
  Raised as :class:`~repro.core.errors.TransientFaultError` from the
  wrapped oracle.

The injector is **armed** by default; the simulation engine disarms it
outside dispatch attempts so post-dispatch accounting (assignment
metrics, revenue) is never poisoned — real platforms put the retry
boundary around the decision stage, not the bookkeeping.

:class:`FaultPlan` describes a schedule for a whole experiment; each
experiment cell derives its own injector from the plan and the cell
key, so every cell sees its own, reproducible fault schedule.
"""

from __future__ import annotations

import os
import random
import signal
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.errors import TransientFaultError
from repro.geometry.batch import Points
from repro.geometry.distance import DistanceOracle
from repro.geometry.point import Point

__all__ = [
    "CrashPlan",
    "FaultInjector",
    "FaultyOracle",
    "FaultPlan",
]


class FaultInjector:
    """Seeded, deterministic fault source shared by one run's oracle calls.

    ``fail_first_calls`` deterministically fails the first N armed calls
    regardless of rates — the hook tests use to make a dispatch attempt
    fail and its same-rung retry succeed.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        latency_rate: float = 0.0,
        latency_s: float = 5.0,
        error_rate: float = 0.0,
        per_call_cost_s: float = 0.0,
        fail_first_calls: int = 0,
    ):
        for name, rate in (("latency_rate", latency_rate), ("error_rate", error_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.latency_rate = latency_rate
        self.latency_s = latency_s
        self.error_rate = error_rate
        self.per_call_cost_s = per_call_cost_s
        self.fail_first_calls = fail_first_calls
        self.armed = True
        self.calls = 0
        self.latency_spikes = 0
        self.errors_raised = 0
        self._virtual_s = 0.0
        self._rng = random.Random(seed)

    # -- virtual clock -----------------------------------------------------

    def clock(self) -> float:
        """Deterministic virtual seconds elapsed; drives frame budgets."""
        return self._virtual_s

    def advance(self, seconds: float) -> None:
        """Manually advance the virtual clock (tests, custom harnesses)."""
        self._virtual_s += seconds

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    # -- fault decisions ---------------------------------------------------

    def before_call(self) -> None:
        """One oracle call is about to run: charge time, maybe fault.

        Disarmed calls still pay the per-call base cost (the oracle does
        run) but never spike or fail, and do not consume the RNG stream,
        so the fault schedule depends only on the armed call sequence.
        """
        self.calls += 1
        self._virtual_s += self.per_call_cost_s
        if not self.armed:
            return
        if self.errors_raised < self.fail_first_calls:
            self.errors_raised += 1
            raise TransientFaultError(
                f"injected deterministic fault on armed call {self.calls}"
            )
        draw = self._rng.random()
        if draw < self.error_rate:
            self.errors_raised += 1
            raise TransientFaultError(f"injected transient oracle error (call {self.calls})")
        if draw < self.error_rate + self.latency_rate:
            self.latency_spikes += 1
            self._virtual_s += self.latency_s

    def wrap(self, oracle: DistanceOracle) -> "FaultyOracle":
        """The distance oracle with this injector in front of every call."""
        return FaultyOracle(oracle, self)

    # -- checkpoint support --------------------------------------------------

    def state_payload(self) -> dict:
        """JSON-serializable capture of the injector's full mutable state.

        ``random.Random.getstate()`` is a nested tuple of ints; it round-
        trips through JSON as lists and is converted back on restore, so
        a resumed run continues the *same* fault schedule the crashed run
        would have produced.
        """
        version, internal, gauss_next = self._rng.getstate()
        return {
            "seed": self.seed,
            "armed": self.armed,
            "calls": self.calls,
            "latency_spikes": self.latency_spikes,
            "errors_raised": self.errors_raised,
            "virtual_s": self._virtual_s,
            "rng": [version, list(internal), gauss_next],
        }

    def restore_state(self, payload: dict) -> None:
        """Restore state captured by :meth:`state_payload`."""
        if payload["seed"] != self.seed:
            raise ValueError(
                f"injector seed mismatch: snapshot has {payload['seed']}, "
                f"this injector was built with {self.seed}"
            )
        self.armed = payload["armed"]
        self.calls = payload["calls"]
        self.latency_spikes = payload["latency_spikes"]
        self.errors_raised = payload["errors_raised"]
        self._virtual_s = payload["virtual_s"]
        version, internal, gauss_next = payload["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))

    def state_fingerprint(self) -> str:
        """Compact digest of the injector state for journal records."""
        version, internal, gauss_next = self._rng.getstate()
        crc = zlib.crc32(repr((version, internal, gauss_next)).encode("utf-8"))
        return f"{self.calls}:{self.errors_raised}:{self.latency_spikes}:{crc:08x}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(seed={self.seed}, calls={self.calls}, "
            f"spikes={self.latency_spikes}, errors={self.errors_raised})"
        )


class FaultyOracle:
    """A distance oracle wrapper that consults a :class:`FaultInjector`.

    Every batch call (``pairwise``/``distances``/``paired``) counts as
    one fault opportunity, mirroring one RPC to a map service.  That
    holds for every caller, warm NSTD frames and the sharing table
    included: ``pairwise``/``paired`` are the oracle's only batch entry
    points, and :mod:`repro.geometry.batch` routes coordinate arrays
    through them too.  The ``batch_exact`` contract passes through
    unchanged, so with the injector disarmed the wrapper is
    observationally identical to its base oracle.
    """

    def __init__(self, base: DistanceOracle, injector: FaultInjector):
        self._base = base
        self._injector = injector

    @property
    def base(self) -> DistanceOracle:
        return self._base

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    @property
    def batch_exact(self) -> bool:
        return bool(getattr(self._base, "batch_exact", False))

    def distance(self, a: Point, b: Point) -> float:
        self._injector.before_call()
        return self._base.distance(a, b)

    def pairwise(self, sources: Points, targets: Points) -> np.ndarray:
        from repro.geometry.batch import oracle_pairwise

        self._injector.before_call()
        return oracle_pairwise(self._base, sources=sources, targets=targets)

    def paired(self, sources: Points, targets: Points) -> np.ndarray:
        from repro.geometry.batch import oracle_paired

        self._injector.before_call()
        return oracle_paired(self._base, sources=sources, targets=targets)

    def __getattr__(self, name: str) -> object:
        # Oracles expose extras (e.g. RoadNetwork.snap); pass them through.
        return getattr(self._base, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyOracle({self._base!r})"


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Fault rates for a whole experiment, one injector per cell.

    The experiment runners wrap each cell's oracle in
    :meth:`build_injector` and bind the injector to the cell's
    :class:`~repro.resilience.ladder.ResiliencePolicy`, whose ladder
    absorbs the faults; a plan without a policy is rejected.
    """

    seed: int = 0
    latency_rate: float = 0.0
    latency_s: float = 5.0
    error_rate: float = 0.0
    per_call_cost_s: float = 0.0

    def build_injector(self, cell_key: str) -> FaultInjector:
        """A fresh injector whose stream is stable in (plan, cell)."""
        # The trailing ":0" is part of the derivation: dropping it would
        # reseed every cell and change every recorded fault schedule.
        derived = zlib.crc32(f"{self.seed}:{cell_key}:0".encode())
        return FaultInjector(
            seed=derived,
            latency_rate=self.latency_rate,
            latency_s=self.latency_s,
            error_rate=self.error_rate,
            per_call_cost_s=self.per_call_cost_s,
        )


@dataclass(frozen=True, slots=True)
class CrashPlan:
    """SIGKILL the process at a chosen frame and phase (chaos tests only).

    ``phase`` selects the crash point relative to durability writes:
    ``"mid-frame"`` fires *before* the frame's journal append (the frame
    is lost and must replay on resume), ``"boundary"`` fires *after* the
    append and any checkpoint (the frame survives in the journal).
    SIGKILL — not an exception — because the recovery contract under
    test is "no Python cleanup ran at all", exactly what the OOM killer
    or a power-cycled host delivers.
    """

    frame: int
    phase: str = "boundary"

    _PHASES = ("boundary", "mid-frame")

    def __post_init__(self) -> None:
        if self.phase not in self._PHASES:
            raise ValueError(f"phase must be one of {self._PHASES}, got {self.phase!r}")
        if self.frame < 0:
            raise ValueError(f"frame must be >= 0, got {self.frame}")

    def execute(self, frame: int, phase: str) -> None:
        """Die here if this is the planned (frame, phase); otherwise no-op."""
        if frame == self.frame and phase == self.phase:
            os.kill(os.getpid(), signal.SIGKILL)
