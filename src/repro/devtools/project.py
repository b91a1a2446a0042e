"""Project-wide analysis context: symbols, mutations, calls, exceptions.

One :class:`ProjectContext` is built per lint run over *all* files in
that run.  Where :class:`~repro.devtools.context.FileContext` answers
purely per-file questions (aliases, snippets), this module answers the
cross-module ones the interprocedural rules need:

* a **module/symbol table** — every top-level function and class of
  every linted file, addressable by importable dotted name, so a call
  like ``sharding.solve_shard`` resolves to the function node
  it names even from another file;
* **per-class attribute-mutation summaries** — every ``self.x = ...``
  site per class (plain/augmented/subscript assignment, loop and
  ``with`` targets, and mutating method calls like
  ``self._recent.append(...)``), including sites inside helper methods,
  which is what lets REP008 see state drift a single method would hide;
* an **alias-aware call graph** — calls resolved through import
  aliases, same-module lookup, ``self.method`` dispatch, and a
  CHA-lite fallback (all project methods sharing the attribute name),
  the precision tier that is sound for "may this raise?" questions;
* a **budget-exception flow pass** — a fixpoint over the call graph
  computing which typed budget errors each function may let escape,
  with ``try`` handler guards applied per call site (REP004's
  interprocedural upgrade);
* an **RNG seed-flow index** — generator constructions whose seed is a
  ``None``-defaulted parameter, joined against every project call site
  that omits the argument (REP002's interprocedural upgrade).

Everything is still pure :mod:`ast` — no imports of the analyzed code,
no execution.  Resolution is deliberately conservative where it must
be: a call that cannot be resolved into the project is assumed able to
raise budget errors when it targets project-rooted or unknown local
callables, and assumed inert when it clearly targets the stdlib or a
third-party module.
"""

from __future__ import annotations

import ast
import builtins
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.context import FileContext

__all__ = [
    "BUDGET_ERROR_NAMES",
    "BROAD_CATCHES",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "MutationSite",
    "ProjectContext",
    "module_name_for_path",
]

#: The typed budget errors whose flow REP004 tracks (PR 3).
BUDGET_ERROR_NAMES = ("FrameBudgetExceededError", "EnumerationBudgetError")

#: Exception classes that catch budget errors without naming them,
#: mapped to the budget errors each one is able to swallow.
BROAD_CATCHES: dict[str, tuple[str, ...]] = {
    "BaseException": BUDGET_ERROR_NAMES,
    "Exception": BUDGET_ERROR_NAMES,
    "ReproError": BUDGET_ERROR_NAMES,
    "MatchingError": ("EnumerationBudgetError",),
}

#: Method names that mutate their receiver in place; a call
#: ``self.x.append(...)`` is a mutation site of attribute ``x``.  RNG
#: draw methods are included deliberately: drawing advances the
#: generator's state, which is exactly the kind of silent drift REP008
#: exists to catch (an unpersisted ``self._rng`` resumes mid-stream).
_MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert",
        "add", "update", "setdefault", "pop", "popleft", "popitem",
        "remove", "discard", "clear", "sort", "reverse",
        "setstate", "seed", "shuffle", "setflags", "fill", "resize",
        "__setitem__",
        # random.Random / numpy Generator draw methods
        "random", "randint", "randrange", "getrandbits", "choice",
        "choices", "sample", "uniform", "gauss", "normalvariate",
        "expovariate", "betavariate", "integers", "standard_normal",
        "normal", "permutation", "exponential", "poisson",
    }
)

_BUILTIN_NAMES = frozenset(dir(builtins))

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def module_name_for_path(path: str) -> str:
    """Importable dotted module name for a linted file path.

    ``src/repro/matching/sharding.py`` → ``repro.matching.sharding``
    (everything after the last ``src`` component); paths without a
    ``src`` component fall back to their stem, which keeps single-file
    runs (fixtures, ``lint_source``) self-consistent.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if not parts:
        return "<unknown>"
    if parts[-1] == "__init__":
        parts = parts[:-1] or ["<unknown>"]
    dotted = ".".join(part for part in parts if part)
    return dotted if "src" not in (parts[0],) else dotted


@dataclass(frozen=True, slots=True)
class MutationSite:
    """One place a class mutates one of its own attributes."""

    attr: str
    method: str
    kind: str  # "assign" | "augassign" | "item" | "call" | "loop" | "with" | "del"
    node: ast.AST


@dataclass(slots=True)
class CallSite:
    """One call expression, pre-resolved against the project."""

    node: ast.Call
    #: Project functions this call may target (CHA-lite: possibly
    #: several).  Empty with ``unknown=False`` means "provably external
    #: and inert"; empty with ``unknown=True`` means "could be anything".
    targets: list["FunctionInfo"]
    unknown: bool


@dataclass(slots=True)
class FunctionInfo:
    """One function or method of the project."""

    name: str
    qualname: str  # "Class.method" or plain "function"
    module: str
    path: str
    node: _FunctionNode
    class_name: str | None = None
    #: Parameter names in call order, ``self``/``cls`` excluded for methods.
    params: list[str] = field(default_factory=list)
    #: Parameter name -> default expression node (only params that have one).
    defaults: dict[str, ast.expr] = field(default_factory=dict)
    #: Keyword-only parameter names (subset of ``params``).
    kwonly: frozenset[str] = frozenset()
    #: Call sites inside this function, resolved (filled by the builder).
    calls: list[CallSite] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


class ClassInfo:
    """One class of the project, with its attribute-mutation summary."""

    def __init__(self, name: str, module: str, path: str, node: ast.ClassDef):
        self.name = name
        self.module = module
        self.path = path
        self.node = node
        self.bases: list[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                self.bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                self.bases.append(base.attr)
        self.methods: dict[str, FunctionInfo] = {}
        #: attr -> every ``self.attr`` mutation site anywhere in the class.
        self.mutations: dict[str, list[MutationSite]] = {}
        #: class-level ``NAME = ...`` / ``NAME: T = ...`` statements.
        self.class_attrs: dict[str, ast.stmt] = {}

    # -- mutation summary queries -----------------------------------------

    def mutated_attrs(self, *, exclude_methods: Iterable[str] = ()) -> dict[str, list[MutationSite]]:
        """Mutation summary restricted to sites outside ``exclude_methods``."""
        skip = set(exclude_methods)
        out: dict[str, list[MutationSite]] = {}
        for attr, sites in self.mutations.items():
            kept = [site for site in sites if site.method not in skip]
            if kept:
                out[attr] = kept
        return out

    def attrs_mutated_in(self, methods: Iterable[str]) -> set[str]:
        """Attributes mutated by any of the given methods."""
        wanted = set(methods)
        return {
            attr
            for attr, sites in self.mutations.items()
            if any(site.method in wanted for site in sites)
        }

    # -- self-call reachability -------------------------------------------

    def self_calls_of(self, method: str) -> set[str]:
        """Names of ``self.x(...)`` calls made directly by ``method``."""
        fn = self.methods.get(method)
        if fn is None:
            return set()
        called: set[str] = set()
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                called.add(node.func.attr)
        return called

    def self_call_closure(self, roots: Iterable[str]) -> set[str]:
        """Methods reachable from ``roots`` via ``self.x()`` calls (incl. roots)."""
        seen: set[str] = set()
        frontier = [root for root in roots if root in self.methods]
        while frontier:
            method = frontier.pop()
            if method in seen:
                continue
            seen.add(method)
            for callee in self.self_calls_of(method):
                if callee in self.methods and callee not in seen:
                    frontier.append(callee)
        return seen

    def attr_loads(self, methods: Iterable[str]) -> set[str]:
        """Attributes read (``self.attr`` in Load context) by the methods."""
        loads: set[str] = set()
        for method in methods:
            fn = self.methods.get(method)
            if fn is None:
                continue
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    loads.add(node.attr)
        return loads


class ProjectContext:
    """Cross-file symbol table, call graph, and dataflow summaries."""

    def __init__(self) -> None:
        self.contexts: dict[str, FileContext] = {}
        #: importable module name -> path (first wins on collisions).
        self.module_paths: dict[str, str] = {}
        #: module name -> top-level function name -> FunctionInfo.
        self.module_functions: dict[str, dict[str, FunctionInfo]] = {}
        #: module name -> class name -> ClassInfo.
        self.module_classes: dict[str, dict[str, ClassInfo]] = {}
        self.functions: list[FunctionInfo] = []
        self.classes: list[ClassInfo] = []
        #: CHA-lite dispatch: method name -> every project method so named.
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: function -> budget errors it may let escape (fixpoint result).
        self._budget_raises: dict[int, frozenset[str]] = {}
        #: reverse call index: id(FunctionInfo) -> [(caller, call node)].
        self.callers: dict[int, list[tuple[FunctionInfo, ast.Call]]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectContext":
        project = cls()
        for ctx in contexts:
            project._index_file(ctx)
        project._resolve_calls()
        project._solve_budget_raises()
        return project

    def _index_file(self, ctx: FileContext) -> None:
        module = module_name_for_path(ctx.path)
        self.contexts[ctx.path] = ctx
        self.module_paths.setdefault(module, ctx.path)
        functions = self.module_functions.setdefault(module, {})
        classes = self.module_classes.setdefault(module, {})
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function_info(stmt, module, ctx.path, None)
                functions.setdefault(stmt.name, info)
                self.functions.append(info)
            elif isinstance(stmt, ast.ClassDef):
                cinfo = self._class_info(stmt, module, ctx.path)
                classes.setdefault(stmt.name, cinfo)
                self.classes.append(cinfo)

    def _function_info(
        self, node: _FunctionNode, module: str, path: str, class_name: str | None
    ) -> FunctionInfo:
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if class_name is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        kwonly = [a.arg for a in args.kwonlyargs]
        defaults: dict[str, ast.expr] = {}
        positional_defaults = args.defaults
        if positional_defaults:
            for name, default in zip(names[-len(positional_defaults):], positional_defaults):
                defaults[name] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaults[arg.arg] = default
        qualname = node.name if class_name is None else f"{class_name}.{node.name}"
        return FunctionInfo(
            name=node.name,
            qualname=qualname,
            module=module,
            path=path,
            node=node,
            class_name=class_name,
            params=names + kwonly,
            defaults=defaults,
            kwonly=frozenset(kwonly),
        )

    def _class_info(self, node: ast.ClassDef, module: str, path: str) -> ClassInfo:
        cinfo = ClassInfo(node.name, module, path, node)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function_info(stmt, module, path, node.name)
                cinfo.methods[stmt.name] = info
                self.functions.append(info)
                self.methods_by_name.setdefault(stmt.name, []).append(info)
                self._summarize_mutations(cinfo, info)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        cinfo.class_attrs[target.id] = stmt
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                cinfo.class_attrs[stmt.target.id] = stmt
        return cinfo

    # -- mutation summaries ------------------------------------------------

    @staticmethod
    def _self_attr(node: ast.expr) -> str | None:
        """``x`` when ``node`` is exactly ``self.x``, else ``None``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _summarize_mutations(self, cinfo: ClassInfo, fn: FunctionInfo) -> None:
        def record(attr: str | None, kind: str, node: ast.AST) -> None:
            if attr is not None:
                cinfo.mutations.setdefault(attr, []).append(
                    MutationSite(attr=attr, method=fn.name, kind=kind, node=node)
                )

        def record_target(target: ast.expr, kind: str, node: ast.AST) -> None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    record_target(element, kind, node)
                return
            if isinstance(target, ast.Starred):
                record_target(target.value, kind, node)
                return
            record(self._self_attr(target), kind, node)
            # self.x[k] = v mutates x (the container), not a new binding
            if isinstance(target, ast.Subscript):
                record(self._self_attr(target.value), "item", node)

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record_target(target, "assign", node)
            elif isinstance(node, ast.AnnAssign):
                record_target(node.target, "assign", node)
            elif isinstance(node, ast.AugAssign):
                record(self._self_attr(node.target), "augassign", node)
                if isinstance(node.target, ast.Subscript):
                    record(self._self_attr(node.target.value), "item", node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                record_target(node.target, "loop", node)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        record_target(item.optional_vars, "with", node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    record(self._self_attr(target), "del", node)
                    if isinstance(target, ast.Subscript):
                        record(self._self_attr(target.value), "del", node)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                ):
                    record(self._self_attr(func.value), "call", node)

    # -- call resolution ---------------------------------------------------

    def lookup_module_symbol(self, dotted: str) -> FunctionInfo | ClassInfo | None:
        """Resolve a canonical dotted name to a project symbol, if linted."""
        module, _, symbol = dotted.rpartition(".")
        if not module:
            return None
        functions = self.module_functions.get(module)
        if functions and symbol in functions:
            return functions[symbol]
        classes = self.module_classes.get(module)
        if classes and symbol in classes:
            return classes[symbol]
        return None

    def _project_roots(self) -> set[str]:
        return {module.split(".")[0] for module in self.module_paths}

    def _cha_targets(self, method_name: str) -> list[FunctionInfo]:
        """CHA-lite dispatch set for an unresolved ``obj.method()`` call.

        Dunder names are excluded: ``super().__init__()`` (whose
        receiver is a call, not a name) would otherwise union every
        constructor in the project into one dispatch set and drown the
        exception-flow lattice in false may-raise edges.
        """
        if method_name.startswith("__") and method_name.endswith("__"):
            return []
        return self.methods_by_name.get(method_name, [])

    def resolve_call(
        self, call: ast.Call, ctx: FileContext, enclosing_class: ClassInfo | None
    ) -> CallSite:
        """Best-effort resolution of one call against the project.

        Targets are the project functions the call may reach;
        ``unknown=True`` marks calls that could reach arbitrary code
        (callbacks, project-rooted imports outside the linted set), the
        case conservative consumers treat as "may raise anything".
        """
        func = call.func
        targets: list[FunctionInfo] = []
        unknown = False
        if isinstance(func, ast.Name):
            name = func.id
            canonical = ctx.aliases.get(name)
            if canonical is not None:
                symbol = self.lookup_module_symbol(canonical)
                if isinstance(symbol, FunctionInfo):
                    targets.append(symbol)
                elif isinstance(symbol, ClassInfo):
                    init = symbol.methods.get("__init__")
                    if init is not None:
                        targets.append(init)
                elif canonical.split(".")[0] in self._project_roots():
                    unknown = True  # project-rooted but not in this run
            else:
                module = module_name_for_path(ctx.path)
                local = self.module_functions.get(module, {}).get(name)
                local_cls = self.module_classes.get(module, {}).get(name)
                if local is not None:
                    targets.append(local)
                elif local_cls is not None:
                    init = local_cls.methods.get("__init__")
                    if init is not None:
                        targets.append(init)
                elif name not in _BUILTIN_NAMES:
                    unknown = True  # a local variable / parameter callable
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self" and enclosing_class is not None:
                own = enclosing_class.methods.get(func.attr)
                if own is not None:
                    targets.append(own)
                else:
                    # inherited (or dynamically provided): CHA-lite
                    targets.extend(self._cha_targets(func.attr))
            else:
                dotted = ctx.dotted_name(func)
                symbol = self.lookup_module_symbol(dotted) if dotted else None
                if isinstance(symbol, FunctionInfo):
                    targets.append(symbol)
                elif isinstance(symbol, ClassInfo):
                    init = symbol.methods.get("__init__")
                    if init is not None:
                        targets.append(init)
                else:
                    # obj.method(): every project method of that name
                    targets.extend(self._cha_targets(func.attr))
        else:
            unknown = True  # computed callables: f()(), (a or b)(), ...
        return CallSite(node=call, targets=targets, unknown=unknown)

    def _resolve_calls(self) -> None:
        class_of: dict[tuple[str, str | None], ClassInfo | None] = {}
        for fn in self.functions:
            key = (fn.path, fn.class_name)
            if key not in class_of:
                cinfo = None
                if fn.class_name is not None:
                    module = module_name_for_path(fn.path)
                    cinfo = self.module_classes.get(module, {}).get(fn.class_name)
                class_of[key] = cinfo
            ctx = self.contexts[fn.path]
            enclosing = class_of[key]
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    site = self.resolve_call(node, ctx, enclosing)
                    fn.calls.append(site)
                    for target in site.targets:
                        self.callers.setdefault(id(target), []).append((fn, node))

    # -- budget-exception flow ---------------------------------------------

    @staticmethod
    def handler_catches(handler: ast.ExceptHandler) -> frozenset[str]:
        """Budget errors the handler absorbs (empty if it re-raises bare)."""
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return frozenset()  # bare re-raise: the error still escapes
        node = handler.type
        if node is None:
            return frozenset(BUDGET_ERROR_NAMES)
        exprs = node.elts if isinstance(node, ast.Tuple) else [node]
        caught: set[str] = set()
        for expr in exprs:
            name = None
            if isinstance(expr, ast.Name):
                name = expr.id
            elif isinstance(expr, ast.Attribute):
                name = expr.attr
            if name in BUDGET_ERROR_NAMES:
                caught.add(name)
            elif name in BROAD_CATCHES:
                caught.update(BROAD_CATCHES[name])
        return frozenset(caught)

    def _escaping_from(
        self,
        stmts: Iterable[ast.stmt],
        fn: FunctionInfo,
        current: dict[int, frozenset[str]],
    ) -> frozenset[str]:
        """Budget errors escaping a statement list, given current raise sets."""
        site_by_call = {id(site.node): site for site in fn.calls}
        escaping: set[str] = set()

        def visit(node: ast.AST, guards: frozenset[str]) -> None:
            if isinstance(node, ast.Try):
                for stmt in node.body:
                    visit(stmt, guards | self._try_guard(node))
                for handler in node.handlers:
                    # handler bodies run outside the try's own guard
                    for stmt in handler.body:
                        visit(stmt, guards)
                for stmt in node.orelse + node.finalbody:
                    visit(stmt, guards)
                return
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = None
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name):
                    name = exc.id
                elif isinstance(exc, ast.Attribute):
                    name = exc.attr
                if name in BUDGET_ERROR_NAMES and name not in guards:
                    escaping.add(name)
            if isinstance(node, ast.Call):
                site = site_by_call.get(id(node))
                if site is not None:
                    escaping.update(self._site_raises(site, current) - guards)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # nested scopes raise only when called
            for child in ast.iter_child_nodes(node):
                visit(child, guards)

        for stmt in stmts:
            visit(stmt, frozenset())
        return frozenset(escaping)

    def _try_guard(self, node: ast.Try) -> frozenset[str]:
        guard: set[str] = set()
        for handler in node.handlers:
            guard.update(self.handler_catches(handler))
        return frozenset(guard)

    def _site_raises(
        self, site: CallSite, current: dict[int, frozenset[str]]
    ) -> frozenset[str]:
        if site.unknown:
            return frozenset(BUDGET_ERROR_NAMES)
        raised: set[str] = set()
        for target in site.targets:
            raised.update(current.get(id(target), frozenset()))
        return frozenset(raised)

    def _solve_budget_raises(self) -> None:
        current: dict[int, frozenset[str]] = {id(fn): frozenset() for fn in self.functions}
        # Monotone fixpoint; the lattice height (2 errors) bounds useful
        # iterations by the call-graph depth, the cap is a safety net.
        for _ in range(32):
            changed = False
            for fn in self.functions:
                escaped = self._escaping_from(fn.node.body, fn, current)
                if escaped != current[id(fn)]:
                    current[id(fn)] = escaped
                    changed = True
            if not changed:
                break
        self._budget_raises = current

    def budget_raises(self, fn: FunctionInfo) -> frozenset[str]:
        """Budget errors ``fn`` may let escape to its caller."""
        return self._budget_raises.get(id(fn), frozenset())

    def escaping_budget_errors(
        self, stmts: Sequence[ast.stmt], fn: FunctionInfo
    ) -> frozenset[str]:
        """Budget errors that may escape a statement list of ``fn``.

        Used on ``try`` bodies: nested handlers inside ``stmts`` are
        honoured, call sites use the converged interprocedural sets.
        """
        return self._escaping_from(stmts, fn, self._budget_raises)

    # -- convenience -------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions

    def iter_classes(self) -> Iterator[ClassInfo]:
        yield from self.classes

    def context_for(self, path: str) -> FileContext:
        return self.contexts[path]

    def class_for_function(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.class_name is None:
            return None
        module = module_name_for_path(fn.path)
        return self.module_classes.get(module, {}).get(fn.class_name)

    def call_site_omits(self, call: ast.Call, target: FunctionInfo, param: str) -> bool:
        """Whether ``call`` leaves ``param`` of ``target`` unbound.

        Positional counting excludes ``self`` for methods (already
        stripped from ``target.params``).  ``*args``/``**kwargs`` at the
        call site make the answer unknowable; they count as provided.
        """
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return False
        if any(kw.arg is None for kw in call.keywords):
            return False
        if any(kw.arg == param for kw in call.keywords):
            return False
        if param in target.kwonly:
            return True
        try:
            index = target.params.index(param)
        except ValueError:
            return True
        return len(call.args) <= index
