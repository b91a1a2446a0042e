"""Known-bad: durability contracts that drop or strand state (REP008)."""

from typing import Any


class DriftingCounter:
    """Regression shape: the PR-8 forgotten-attribute payload drift."""

    def __init__(self) -> None:
        self.ticks = 0
        self.skipped = 0

    def observe(self, ok: bool) -> None:
        if ok:
            self._tick()
        else:
            self.skipped += 1

    def _tick(self) -> None:
        self.ticks += 1

    def state_payload(self) -> dict[str, Any]:
        return {"ticks": self.ticks}

    def restore_state(self, payload: dict[str, Any]) -> None:
        self.ticks = payload["ticks"]


class OneWay:
    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> None:
        self.total += amount

    def state_payload(self) -> dict[str, Any]:
        return {"total": self.total}

    def restore_state(self, payload: dict[str, Any]) -> None:
        return None


class StaleExclusion:
    DURABILITY_EXCLUSIONS = {"phantom": "attribute that is never mutated"}

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1

    def state_payload(self) -> dict[str, Any]:
        return {"count": self.count}

    def restore_state(self, payload: dict[str, Any]) -> None:
        self.count = payload["count"]


class EmptyReason:
    DURABILITY_EXCLUSIONS = {"scratch": ""}

    def __init__(self) -> None:
        self.scratch = 0

    def touch(self) -> None:
        self.scratch += 1

    def state_payload(self) -> dict[str, Any]:
        return {}

    def restore_state(self, payload: dict[str, Any]) -> None:
        return None


class InheritsThePair(OneWay):
    """Inherits ``OneWay``'s payload pair, so its own state must fit it."""

    def note(self) -> None:
        self.noted = True
