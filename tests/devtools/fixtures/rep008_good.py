"""Known-good: full round-trip plus a reasoned exclusion (REP008)."""

import random
from typing import Any


class DurableCounter:
    """Round-trips mutated counters and declares its derived scratch state."""

    DURABILITY_EXCLUSIONS = {
        "_scratch": "derived per-frame buffer; rebuilt from ticks on first use",
    }

    def __init__(self, seed: int) -> None:
        self.ticks = 0
        self._rng = random.Random(seed)
        self._scratch: list[int] | None = None

    def observe(self) -> None:
        self.ticks += 1
        self._scratch = [self.ticks, int(self._rng.random() * 10)]

    def state_payload(self) -> dict[str, Any]:
        return {"ticks": self.ticks, "rng": list(self._rng.getstate()[1])}

    def restore_state(self, payload: dict[str, Any]) -> None:
        self.ticks = payload["ticks"]
        self._rng.setstate((3, tuple(payload["rng"]), None))
        self._scratch = None


class DurableChild(DurableCounter):
    """Inherits the pair: its own state fits it, and the parent's
    declaration covers the scratch buffer it resets."""

    DURABILITY_EXCLUSIONS = {
        "_trace": "diagnostic copy of the last tick; the next observe rewrites it",
    }

    def observe(self) -> None:
        super().observe()
        self._trace = self.ticks

    def rewind(self) -> None:
        self.ticks = 0
        self._scratch = None
