"""REP009 — no process pool in ``src/``.

Every run is one serial loop, and every number the repo reports comes
from a one-CPU host.  Work handed to a
:class:`concurrent.futures.ProcessPoolExecutor` crosses a pickle
boundary that forks RNG streams and detaches caches from the parent, so
any reference to the class is a finding.  A change that brings a pool
back must bring back a rule that checks what it submits.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.registry import register_rule

__all__ = ["NoProcessPoolRule"]

_POOL = "concurrent.futures.ProcessPoolExecutor"


@register_rule
class NoProcessPoolRule:
    rule_id = "REP009"
    summary = "a ProcessPoolExecutor reference"
    convention = "Serial runs: no module in src/ imports or starts a process pool."

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = [ctx.dotted_name(node)]
            else:
                continue
            if _POOL in names:
                yield ctx.finding(self.rule_id, f"`{_POOL}`: runs stay one serial loop", node)
