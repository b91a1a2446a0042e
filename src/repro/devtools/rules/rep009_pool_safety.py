"""REP009 — process-pool callables must be module-level and capture-free.

No module in ``src/`` starts a process pool today: the experiment
runners are one serial loop.  The rule guards the next one.  Work
submitted to a :class:`concurrent.futures.ProcessPoolExecutor` crosses
a pickle boundary, which makes two whole bug classes possible that
never compile on the single-process path:

* **unpicklable callables** — lambdas, functions defined inside another
  function, and bound methods either fail to pickle outright or (worse,
  with fork) *appear* to work locally and break on spawn platforms;
* **captured state** — a closure or bound method that drags an engine,
  distance oracle, frame cache, or ``random.Random`` into the child
  duplicates state the parent keeps mutating: the RNG forks its stream
  (breaking bit-reproducibility) and the cache/oracle silently stops
  seeing parent updates.

The rule finds every ``.submit(...)`` / ``.map(...)`` on a
ProcessPoolExecutor — whether the pool is a local variable, a ``with``
target, an instance attribute, or the result of a helper annotated
``-> ProcessPoolExecutor`` — and requires the submitted callable to
resolve to a module-level function (local or imported).  ``functools.partial`` is
unwrapped and its bound arguments are scanned for captured engines /
oracles / caches / RNGs by constructor and naming convention.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.project import FunctionInfo, ProjectContext, module_name_for_path
from repro.devtools.registry import register_rule

__all__ = ["PoolSafetyRule"]

_POOL_CLASS = "concurrent.futures.ProcessPoolExecutor"
_POOL_METHODS = {"submit", "map"}

#: Canonical constructors whose instances must never ride into a worker.
_STATEFUL_CTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
}

#: Name fragments that mark a value as parent-process state by repo
#: convention (engines, oracles, caches carry live mutable state).
_STATEFUL_NAME_HINTS = (
    "engine", "oracle", "cache", "dispatcher", "simulator",
    "rng", "random", "pool", "executor", "injector", "auditor",
)


def _is_pool_ctor(call: ast.Call, ctx: FileContext) -> bool:
    return ctx.dotted_name(call.func) == _POOL_CLASS


def _annotation_mentions_pool(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return "ProcessPoolExecutor" in annotation.value
    return any(
        isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor"
        for node in ast.walk(annotation)
    )


def _looks_stateful(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in _STATEFUL_NAME_HINTS)


class _FunctionScope:
    """Name bindings inside one function, for capture/pool resolution."""

    def __init__(self, fn: FunctionInfo, ctx: FileContext):
        self.fn = fn
        self.ctx = ctx
        self.pool_names: set[str] = set()
        self.assigned_from: dict[str, ast.expr] = {}
        self.nested_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.local_names: set[str] = set(fn.params)
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_mentions_pool(arg.annotation):
                self.pool_names.add(arg.arg)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.expr):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_names.add(target.id)
                        self.assigned_from[target.id] = node.value
                        if isinstance(node.value, ast.Call) and _is_pool_ctor(
                            node.value, ctx
                        ):
                            self.pool_names.add(target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    target = item.optional_vars
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(item.context_expr, ast.Call)
                        and _is_pool_ctor(item.context_expr, ctx)
                    ):
                        self.pool_names.add(target.id)
                        self.local_names.add(target.id)
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn.node
            ):
                self.nested_defs[node.name] = node
                self.local_names.add(node.name)


@register_rule
class PoolSafetyRule:
    rule_id = "REP009"
    summary = "process-pool callable is not a capture-free module-level function"
    convention = (
        "Process fan-out: everything crossing the ProcessPoolExecutor pickle "
        "boundary must be a module-level function with explicit picklable arguments."
    )

    def project_check(self, project: ProjectContext) -> Iterator[Finding]:
        pool_attrs = self._pool_attributes(project)
        pool_returning = self._pool_returning_callables(project)
        for fn in project.iter_functions():
            ctx = project.context_for(fn.path)
            scope = _FunctionScope(fn, ctx)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute) or func.attr not in _POOL_METHODS:
                    continue
                if not self._receiver_is_pool(
                    func.value, scope, pool_attrs, pool_returning
                ):
                    continue
                if not node.args:
                    continue
                yield from self._check_callable(node.args[0], node, fn, scope, project)

    # -- pool-object discovery --------------------------------------------

    @staticmethod
    def _pool_attributes(project: ProjectContext) -> dict[str, set[str]]:
        """Class name -> attribute names holding a ProcessPoolExecutor."""
        attrs: dict[str, set[str]] = {}
        for cinfo in project.iter_classes():
            ctx = project.context_for(cinfo.path)
            names: set[str] = set()
            for node in ast.walk(cinfo.node):
                if isinstance(node, ast.Assign):
                    if isinstance(node.value, ast.Call) and _is_pool_ctor(node.value, ctx):
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                names.add(target.attr)
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _annotation_mentions_pool(node.annotation)
                    ):
                        names.add(target.attr)
            for name, stmt in cinfo.class_attrs.items():
                if isinstance(stmt, ast.AnnAssign) and _annotation_mentions_pool(
                    stmt.annotation
                ):
                    names.add(name)
            if names:
                attrs[cinfo.name] = names
        return attrs

    @staticmethod
    def _pool_returning_callables(project: ProjectContext) -> set[str]:
        """Names of functions/methods annotated to return a pool."""
        return {
            fn.name
            for fn in project.iter_functions()
            if _annotation_mentions_pool(fn.node.returns)
        }

    def _receiver_is_pool(
        self,
        receiver: ast.expr,
        scope: _FunctionScope,
        pool_attrs: dict[str, set[str]],
        pool_returning: set[str],
    ) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id in scope.pool_names
        if isinstance(receiver, ast.Call):
            if _is_pool_ctor(receiver, scope.ctx):
                return True
            func = receiver.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            return name in pool_returning
        if isinstance(receiver, ast.Attribute) and isinstance(receiver.value, ast.Name):
            if receiver.value.id == "self":
                owner = scope.fn.class_name
                if owner is not None and receiver.attr in pool_attrs.get(owner, ()):
                    return True
            return any(receiver.attr in names for names in pool_attrs.values())
        return False

    # -- submitted-callable vetting ---------------------------------------

    def _check_callable(
        self,
        target: ast.expr,
        call: ast.Call,
        fn: FunctionInfo,
        scope: _FunctionScope,
        project: ProjectContext,
    ) -> Iterator[Finding]:
        ctx = scope.ctx
        if isinstance(target, ast.Lambda):
            yield ctx.finding(
                self.rule_id,
                "lambda submitted to a process pool cannot be pickled; "
                "hoist it to a module-level function",
                target,
            )
            return
        if isinstance(target, ast.Call) and ctx.dotted_name(target.func) in (
            "functools.partial",
            "partial",
        ):
            if target.args:
                yield from self._check_callable(target.args[0], call, fn, scope, project)
                for bound in list(target.args[1:]) + [kw.value for kw in target.keywords]:
                    yield from self._check_bound_argument(bound, scope)
            return
        if isinstance(target, ast.Attribute):
            yield ctx.finding(
                self.rule_id,
                f"`{ctx.snippet(target) or 'bound attribute'}`: submitting a bound "
                "method ships its whole instance (engine/cache state) to the "
                "worker; submit a module-level function taking explicit arguments",
                target,
            )
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        nested = scope.nested_defs.get(name)
        if nested is not None:
            captured = self._risky_captures(nested, scope)
            detail = (
                f" and closes over {', '.join(f'`{c}`' for c in captured)}"
                if captured
                else ""
            )
            yield ctx.finding(
                self.rule_id,
                f"`{name}` is defined inside `{fn.name}`{detail}; process-pool "
                "callables must be module-level functions with explicit arguments",
                nested,
            )
            return
        if name in ctx.aliases:
            return  # imported at module level: picklable by reference
        module = module_name_for_path(ctx.path)
        if name in project.module_functions.get(module, {}):
            return  # module-level def in the same file
        if name in project.module_classes.get(module, {}):
            return  # module-level class: picklable by reference
        if name in scope.local_names:
            source = scope.assigned_from.get(name)
            came_from = f" (assigned from `{ctx.snippet(source)}`)" if source is not None else ""
            yield ctx.finding(
                self.rule_id,
                f"`{name}` is a local binding{came_from}; the pool boundary "
                "needs a module-level function it can pickle by reference",
                target,
            )

    def _check_bound_argument(
        self, bound: ast.expr, scope: _FunctionScope
    ) -> Iterator[Finding]:
        """Flag partial-bound arguments that carry parent-process state."""
        ctx = scope.ctx
        if isinstance(bound, ast.Call) and ctx.dotted_name(bound.func) in _STATEFUL_CTORS:
            yield ctx.finding(
                self.rule_id,
                f"`{ctx.dotted_name(bound.func)}` instance bound into a pool "
                "submission forks live state into the worker; pass plain data "
                "(a seed, a payload) instead",
                bound,
            )
            return
        name: str | None = None
        if isinstance(bound, ast.Name):
            name = bound.id
        elif isinstance(bound, ast.Attribute):
            name = bound.attr
        if name is None:
            return
        origin = scope.assigned_from.get(name)
        if origin is not None and isinstance(origin, ast.Call):
            if ctx.dotted_name(origin.func) in _STATEFUL_CTORS:
                yield ctx.finding(
                    self.rule_id,
                    f"`{name}` holds a `{ctx.dotted_name(origin.func)}`; binding "
                    "it into a pool submission forks live state into the worker",
                    bound,
                )
                return
        if isinstance(bound, ast.Attribute) and _looks_stateful(name):
            yield ctx.finding(
                self.rule_id,
                f"`{ctx.snippet(bound) or name}` looks like live parent-process "
                "state bound into a pool submission; pass plain data instead",
                bound,
            )

    @staticmethod
    def _risky_captures(
        nested: ast.FunctionDef | ast.AsyncFunctionDef, scope: _FunctionScope
    ) -> list[str]:
        """Free variables of ``nested`` that carry parent-process state."""
        own: set[str] = {a.arg for a in nested.args.args + nested.args.kwonlyargs}
        for node in ast.walk(nested):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        own.add(target.id)
        risky: list[str] = []
        for node in ast.walk(nested):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.id
            if name in own or name in risky:
                continue
            if name not in scope.local_names:
                continue  # global or builtin, not a capture
            origin = scope.assigned_from.get(name)
            from_stateful_ctor = (
                origin is not None
                and isinstance(origin, ast.Call)
                and scope.ctx.dotted_name(origin.func) in _STATEFUL_CTORS
            )
            if from_stateful_ctor or _looks_stateful(name):
                risky.append(name)
        return sorted(risky)
