#!/usr/bin/env python3
"""Docstring-coverage floor and cross-reference check (stdlib ``ast`` only).

Counts every *public* documentable object under the given roots —
modules, module-level classes and functions, and public methods of
public classes — and fails when the documented fraction drops below the
floor. Public means not underscore-prefixed and not nested inside a
function; ``__init__`` is exempt (the class docstring covers
construction), as are other dunders, overload stubs, and
``TYPE_CHECKING`` blocks. Nothing is imported or executed.

The floor ratchets quality without demanding retroactive perfection:
the repo sits a few points above it, so a PR that lands a batch of
undocumented public API pulls the number down and fails the gate,
while one that documents as it goes raises the margin. Raise the floor
as coverage grows; never lower it.

Every Sphinx role target written as a dotted ``repro.`` path in the
source (``:func:``, ``:class:``, ``:meth:``, ``:mod:``, ``:attr:``,
``:data:``, ``:exc:``, with or without ``~``) must name a module under
the roots, a name its top-level statements bind (by definition,
assignment or import, so re-exports resolve), or a name bound in the
body of a class it defines. A dangling target fails the check: it
points readers at code that moved or was deleted.

Usage::

    python scripts/check_docstrings.py src/                # default floor
    python scripts/check_docstrings.py --floor 0.95 src/
    python scripts/check_docstrings.py --list-missing src/
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_FLOOR = 0.80

#: A role whose target (after an optional ``title <`` and ``~``/``.``)
#: is a dotted ``repro.`` path.
ROLE_TARGET = re.compile(
    r":(?:func|class|meth|mod|attr|data|exc):`(?:[^`<]*<)?[~.]?(repro(?:\.\w+)+)(?:\(\))?>?`"
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _documented(node: ast.AST) -> bool:
    return ast.get_docstring(node) is not None


def _is_overload(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator
        if isinstance(target, ast.Attribute):
            target = target.attr  # typing.overload
        if isinstance(target, ast.Name):
            target = target.id
        if target == "overload":
            return True
    return False


def audit_module(tree: ast.Module, module: str) -> tuple[list[str], list[str]]:
    """(documented, missing) fully-qualified names for one file."""
    documented: list[str] = []
    missing: list[str] = []

    def record(name: str, node: ast.AST) -> None:
        (documented if _documented(node) else missing).append(name)

    record(module, tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name) and not _is_overload(node):
                record(f"{module}.{node.name}", node)
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            record(f"{module}.{node.name}", node)
            for sub in node.body:
                if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not _is_public(sub.name) or _is_overload(sub):
                    continue
                record(f"{module}.{node.name}.{sub.name}", sub)
    return documented, missing


@dataclass
class ModuleSymbols:
    """What one module binds at its top level, for cross-reference lookup."""

    names: set[str] = field(default_factory=set)
    #: Local alias -> the dotted path it was imported from.
    imports: dict[str, str] = field(default_factory=dict)
    #: Class name -> the names its body binds (methods, class attributes).
    classes: dict[str, set[str]] = field(default_factory=dict)


def _bound(node: ast.stmt) -> set[str]:
    """The names one statement binds in its scope."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    return {sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)}


def module_symbols(tree: ast.Module) -> ModuleSymbols:
    """The names a module's top-level statements bind."""
    symbols = ModuleSymbols()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                symbols.imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                symbols.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        else:
            symbols.names |= _bound(node)
            if isinstance(node, ast.ClassDef):
                symbols.classes[node.name] = set().union(*map(_bound, node.body))
    return symbols


def resolves(modules: dict[str, ModuleSymbols], target: str, seen: frozenset[str] = frozenset()) -> bool:
    """Whether the dotted ``target`` names a module, a name one binds
    (following imports, so re-exports resolve), or a class member."""
    if target in seen:
        return False
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module in modules:
            break
    else:
        return False
    rest = parts[cut:]
    if not rest:
        return True
    symbols = modules[module]
    name, tail = rest[0], rest[1:]
    if name in symbols.imports:
        return resolves(modules, ".".join([symbols.imports[name], *tail]), seen | {target})
    if name in symbols.classes and len(tail) == 1:
        return tail[0] in symbols.classes[name]
    return name in symbols.names and not tail


def cross_references(trees: dict[Path, ast.Module]) -> tuple[int, list[str]]:
    """(targets checked, dangling ``path:line: target`` lines) over the files.

    The whole source is scanned, so ``#:`` attribute comments count too.
    """
    modules = {module_name(path): module_symbols(tree) for path, tree in trees.items()}
    checked = 0
    dangling: list[str] = []
    for path in trees:
        text = path.read_text(encoding="utf-8")
        for match in ROLE_TARGET.finditer(text):
            checked += 1
            if not resolves(modules, match.group(1)):
                line = 1 + text.count("\n", 0, match.start())
                dangling.append(f"{path}:{line}: {match.group(0)}")
    return checked, dangling


def module_name(path: Path) -> str:
    parts = list(path.with_suffix("").parts)
    while "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="+", help="directories or files to audit")
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR,
        help=f"minimum documented fraction (default {DEFAULT_FLOOR})",
    )
    parser.add_argument(
        "--list-missing",
        action="store_true",
        help="print every undocumented public object",
    )
    options = parser.parse_args(argv)

    files: list[Path] = []
    for root in options.roots:
        path = Path(root)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.exists():
            files.append(path)
        else:
            print(f"no such file: {root}", file=sys.stderr)
            return 2

    trees: dict[Path, ast.Module] = {}
    for path in files:
        try:
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            print(f"{path}: syntax error ({exc})", file=sys.stderr)
            return 2

    documented: list[str] = []
    missing: list[str] = []
    for path, tree in trees.items():
        docs, gaps = audit_module(tree, module_name(path))
        documented.extend(docs)
        missing.extend(gaps)

    total = len(documented) + len(missing)
    coverage = len(documented) / total if total else 1.0
    if options.list_missing:
        for name in missing:
            print(f"undocumented: {name}")
    verdict = "ok" if coverage >= options.floor else "FAILED"
    print(
        f"docstring coverage: {len(documented)}/{total} public objects "
        f"({coverage:.1%}) — floor {options.floor:.0%} — {verdict}"
    )
    if coverage < options.floor and not options.list_missing:
        print("(re-run with --list-missing to see the gaps)")

    checked, dangling = cross_references(trees)
    for line in dangling:
        print(f"dangling cross-reference: {line}")
    print(
        f"docstring cross-references: {checked - len(dangling)}/{checked} repro. targets "
        f"resolve — {'ok' if not dangling else 'FAILED'}"
    )
    return 1 if coverage < options.floor or dangling else 0


if __name__ == "__main__":
    raise SystemExit(main())
