"""REP008 — state_payload/restore_state must round-trip mutated state.

A class that opts into checkpoint durability by defining *both*
``state_payload()`` and ``restore_state(payload)`` is promising the
crash-recovery machinery (PR 8) that a resumed run continues
bit-identically.  That promise breaks silently the day someone adds a
mutable attribute and forgets the payload: the run resumes, nothing
crashes, and the divergence surfaces frames later as a CRC mismatch —
the exact drift class the PR 8 audit fixed by hand.  This rule makes
the contract structural:

* every attribute the class mutates outside ``__init__`` /
  ``__post_init__`` / the restore path must be **read somewhere in the
  payload path** (``state_payload`` plus helpers it calls on
  ``self``), or be declared in a class-level ``DURABILITY_EXCLUSIONS``
  dict literal mapping the attribute name to a non-empty *reason*
  string — the "deliberately not persisted" decision becomes a
  reviewed declaration instead of a comment;
* every attribute the payload path reads must be **written back by the
  restore path** (assignment or an in-place mutator call such as
  ``.setstate(...)`` / ``.extend(...)``) — one-way persistence is
  drift with extra steps;
* exclusions must stay honest: an excluded attribute that is never
  mutated, or that the payload path persists anyway, is stale and is
  itself reported.

The mutation summary is project-wide and includes helper methods, so
``self._bump("warm_frames")`` deep inside a solve path still counts as
mutating ``_telemetry``.  The contract is checked on each class that
defines or inherits the method pair (bases resolved by name among the
linted classes): each is checked against its own mutations, the payload
and restore paths it resolves (inherited methods included) and its
declarations, inherited ones included.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.project import ClassInfo, ProjectContext
from repro.devtools.registry import register_rule

__all__ = ["DurabilityDriftRule", "EXCLUSIONS_ATTR"]

#: Class attribute declaring attributes deliberately left out of the
#: checkpoint payload, mapped to the reason each one is safe to drop.
EXCLUSIONS_ATTR = "DURABILITY_EXCLUSIONS"

#: Methods whose mutations are construction/restore plumbing, not
#: run-time state drift.
_LIFECYCLE_METHODS = ("__init__", "__post_init__")


def _exclusion_value(stmt: ast.stmt) -> ast.expr | None:
    if isinstance(stmt, ast.Assign):
        return stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return stmt.value
    return None


def _parse_exclusions(
    cinfo: ClassInfo, ctx: FileContext, rule_id: str
) -> tuple[dict[str, str], list[Finding]]:
    """The declared exclusion table and any declaration-shape findings."""
    stmt = cinfo.class_attrs.get(EXCLUSIONS_ATTR)
    if stmt is None:
        return {}, []
    value = _exclusion_value(stmt)
    findings: list[Finding] = []
    if not isinstance(value, ast.Dict):
        findings.append(
            ctx.finding(
                rule_id,
                f"{EXCLUSIONS_ATTR} must be a literal dict of "
                "{'attribute': 'reason it is safe to not persist'}",
                stmt,
            )
        )
        return {}, findings
    exclusions: dict[str, str] = {}
    for key, reason in zip(value.keys, value.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            findings.append(
                ctx.finding(
                    rule_id,
                    f"{EXCLUSIONS_ATTR} keys must be attribute-name string literals",
                    key if key is not None else stmt,
                )
            )
            continue
        if not (
            isinstance(reason, ast.Constant)
            and isinstance(reason.value, str)
            and reason.value.strip()
        ):
            findings.append(
                ctx.finding(
                    rule_id,
                    f"{EXCLUSIONS_ATTR}[{key.value!r}] needs a non-empty reason "
                    "string saying why the attribute is safe to not persist",
                    reason,
                )
            )
            continue
        exclusions[key.value] = reason.value.strip()
    return exclusions, findings


def _lineage(cinfo: ClassInfo, by_name: dict[str, list[ClassInfo]]) -> list[ClassInfo]:
    """``cinfo`` and its linted base classes, depth-first in base order:
    the first class in the list that defines a method is its owner."""
    lineage: list[ClassInfo] = []
    stack = [cinfo]
    while stack:
        current = stack.pop()
        if current in lineage:
            continue
        lineage.append(current)
        bases: list[ClassInfo] = []
        for name in current.bases:
            candidates = by_name.get(name, [])
            local = [c for c in candidates if c.module == current.module]
            if len(local or candidates) == 1:
                bases.append((local or candidates)[0])
        stack.extend(reversed(bases))
    return lineage


def _closure(owners: dict[str, ClassInfo], roots: Iterable[str]) -> set[str]:
    """Methods reachable from ``roots`` via ``self.x()`` calls, each
    resolved to the class that owns it (incl. roots)."""
    seen: set[str] = set()
    frontier = [root for root in roots if root in owners]
    while frontier:
        method = frontier.pop()
        if method in seen:
            continue
        seen.add(method)
        frontier.extend(
            callee for callee in owners[method].self_calls_of(method)
            if callee in owners and callee not in seen
        )
    return seen


@register_rule
class DurabilityDriftRule:
    rule_id = "REP008"
    summary = "checkpointed class mutates state its payload does not round-trip"
    convention = (
        "Durable resume (PR 8): state_payload/restore_state pairs must cover every "
        "mutated attribute or declare a reasoned DURABILITY_EXCLUSIONS entry."
    )

    def project_check(self, project: ProjectContext) -> Iterator[Finding]:
        by_name: dict[str, list[ClassInfo]] = {}
        for cinfo in project.iter_classes():
            by_name.setdefault(cinfo.name, []).append(cinfo)
        for cinfo in project.iter_classes():
            lineage = _lineage(cinfo, by_name)
            owners: dict[str, ClassInfo] = {}
            for klass in lineage:
                for method in klass.methods:
                    owners.setdefault(method, klass)
            if "state_payload" not in owners or "restore_state" not in owners:
                continue
            ctx = project.context_for(cinfo.path)
            exclusions, shape_findings = _parse_exclusions(cinfo, ctx, self.rule_id)
            yield from shape_findings
            declared: dict[str, str] = {}
            for base in reversed(lineage[1:]):
                declared.update(
                    _parse_exclusions(base, project.context_for(base.path), self.rule_id)[0]
                )
            declared.update(exclusions)

            payload_methods = _closure(owners, ["state_payload"])
            restore_methods = _closure(owners, ["restore_state"])
            persisted: set[str] = set()
            for method in payload_methods:
                persisted |= owners[method].attr_loads([method])
            restored: set[str] = set()
            for method in restore_methods:
                restored |= owners[method].attrs_mutated_in([method])
            mutated = cinfo.mutated_attrs(
                exclude_methods=set(_LIFECYCLE_METHODS) | restore_methods
            )

            for attr in sorted(mutated):
                if attr in persisted or attr in declared:
                    continue
                site = mutated[attr][0]
                yield ctx.finding(
                    self.rule_id,
                    f"`{cinfo.name}` mutates `self.{attr}` (here, in "
                    f"`{site.method}`) but `state_payload` never reads it and "
                    f"{EXCLUSIONS_ATTR} does not declare it — a resumed run "
                    "silently drops this state",
                    site.node,
                )

            payload = cinfo.methods.get("state_payload")
            payload_node = payload.node if payload is not None else cinfo.node
            for attr in sorted(persisted & set(mutated)):
                if attr not in restored:
                    yield ctx.finding(
                        self.rule_id,
                        f"`{cinfo.name}.state_payload` persists `self.{attr}` "
                        "but `restore_state` never writes it back — one-way "
                        "persistence cannot survive a resume",
                        payload_node,
                    )

            decl = cinfo.class_attrs.get(EXCLUSIONS_ATTR)
            for attr in sorted(exclusions):
                if attr in persisted:
                    yield ctx.finding(
                        self.rule_id,
                        f"{EXCLUSIONS_ATTR} declares `{attr}` not persisted, but "
                        "`state_payload` reads it — drop the stale exclusion",
                        decl if decl is not None else cinfo.node,
                    )
                elif attr not in mutated:
                    yield ctx.finding(
                        self.rule_id,
                        f"{EXCLUSIONS_ATTR} declares `{attr}`, but `{cinfo.name}` "
                        "never mutates it outside construction — drop the stale "
                        "exclusion",
                        decl if decl is not None else cinfo.node,
                    )
