"""REP010 — warm solver state must be invalidated when its inputs change.

The warm-start fast paths carry solver state between consecutive
frames — :class:`FrameSolveState`, the per-frame
:class:`FrameDistanceCache` memo, and the sharing dispatchers'
``GroupMemo`` and settled market.  Each is a *derived* structure: it is
only valid while the inputs it was computed from stay untouched.  The
stability guarantee (Definition 1) is exactly what breaks when a
mutation slips past invalidation: the fast path happily produces a
matching with blocking pairs relative to the *current* inputs, and
only the sampling auditor (PR 8) has a chance of noticing at runtime.

This rule makes the discipline static.  Per class that owns warm state
(an attribute annotated with a warm type or assigned from a warm-state
factory):

* the **producer closure** — every method that assigns the warm
  attribute plus the helpers it calls on ``self`` — defines the
  *inputs*: the ``self`` attributes it reads, minus the warm
  attributes themselves and anything the closure also writes
  (telemetry counters written during production are outputs, not
  inputs);
* any method *outside* the lifecycle set (``__init__``, ``reset*``,
  ``invalidate*``, ``restore*``, ``shutdown*``, ``close*``,
  ``clear*``, and every helper those call) that mutates an input must
  itself reach an invalidation — write a warm attribute or call into
  the reset/invalidate closure — within its own ``self``-call closure.

A mutation the rule flags is a path that changes what the warm state
was derived from while leaving the stale derivation live for the next
frame's fast path.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.findings import Finding
from repro.devtools.project import ClassInfo, ProjectContext
from repro.devtools.registry import register_rule

__all__ = ["WarmInvalidationRule"]

#: Types whose instances are frame-derived solver state: the warm NSTD
#: solver's, the frame distance cache, and the sharing dispatchers'
#: group memo (with its carried family) and settled market.
WARM_STATE_TYPES = ("FrameSolveState", "FrameDistanceCache", "GroupMemo", "_SettledMarket")

#: Module-level factories that build warm state from a cold solve.
WARM_STATE_FACTORIES = ("frame_state_from_cold",)

#: Method-name prefixes whose mutations are lifecycle management, not
#: input drift (they either rebuild or discard the warm state).
_LIFECYCLE_PREFIXES = (
    "__init__", "__post_init__", "reset", "invalidate", "restore",
    "shutdown", "close", "clear",
)


def _annotation_mentions_warm(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return any(name in annotation.value for name in WARM_STATE_TYPES)
    return any(
        isinstance(node, ast.Name) and node.id in WARM_STATE_TYPES
        for node in ast.walk(annotation)
    )


def _call_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _is_lifecycle(method: str) -> bool:
    return any(
        method == prefix or method.lstrip("_").startswith(prefix)
        for prefix in _LIFECYCLE_PREFIXES
    )


@register_rule
class WarmInvalidationRule:
    rule_id = "REP010"
    summary = "warm-state input mutated without reaching an invalidation path"
    convention = (
        "Warm-start soundness: FrameSolveState/FrameDistanceCache are "
        "derived state; every input mutation must reset them."
    )

    def project_check(self, project: ProjectContext) -> Iterator[Finding]:
        for cinfo in project.iter_classes():
            warm_attrs = self._warm_attributes(cinfo)
            if not warm_attrs:
                continue
            yield from self._check_class(project, cinfo, warm_attrs)

    @staticmethod
    def _warm_attributes(cinfo: ClassInfo) -> set[str]:
        warm: set[str] = set()
        for name, stmt in cinfo.class_attrs.items():
            if isinstance(stmt, ast.AnnAssign) and _annotation_mentions_warm(
                stmt.annotation
            ):
                warm.add(name)
        for node in ast.walk(cinfo.node):
            if isinstance(node, ast.AnnAssign):
                target = node.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and _annotation_mentions_warm(node.annotation)
                ):
                    warm.add(target.attr)
            elif isinstance(node, ast.Assign):
                if _call_name(node.value) in WARM_STATE_FACTORIES:
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            warm.add(target.attr)
        return warm

    def _check_class(
        self, project: ProjectContext, cinfo: ClassInfo, warm_attrs: set[str]
    ) -> Iterator[Finding]:
        ctx = project.context_for(cinfo.path)

        # Producers: methods that install warm state (assign a warm attr
        # something other than None).  Their closure's reads are the
        # inputs the warm state is derived from.
        producers: set[str] = set()
        for attr in warm_attrs:
            for site in cinfo.mutations.get(attr, ()):
                if site.kind == "assign" and isinstance(site.node, ast.Assign):
                    value = site.node.value
                    if isinstance(value, ast.Constant) and value.value is None:
                        continue
                if not _is_lifecycle(site.method):
                    producers.add(site.method)
        if not producers:
            return

        producer_closure = cinfo.self_call_closure(producers)
        closure_written = cinfo.attrs_mutated_in(producer_closure)
        inputs = cinfo.attr_loads(producer_closure) - warm_attrs - closure_written
        if not inputs:
            return

        lifecycle_roots = [m for m in cinfo.methods if _is_lifecycle(m)]
        lifecycle = cinfo.self_call_closure(lifecycle_roots)
        invalidators = {
            m for m in cinfo.methods if m.startswith(("reset", "invalidate"))
        }

        for attr in sorted(inputs):
            for site in cinfo.mutations.get(attr, ()):
                if site.method in lifecycle or site.method in producer_closure:
                    continue
                closure = cinfo.self_call_closure([site.method])
                reaches_invalidation = bool(closure & invalidators) or any(
                    cinfo.attrs_mutated_in([m]) & warm_attrs for m in closure
                )
                if not reaches_invalidation:
                    warm = ", ".join(sorted(warm_attrs))
                    yield ctx.finding(
                        self.rule_id,
                        f"`{cinfo.name}.{site.method}` mutates `self.{attr}`, an "
                        f"input the warm solver state ({warm}) was derived from, "
                        "without reaching a reset/invalidate path — the next "
                        "fast-path frame reuses stale state",
                        site.node,
                    )
