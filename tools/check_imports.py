#!/usr/bin/env python
"""Lint ``src/`` with stdlib ``ast`` only: unused imports, broad excepts
and unreachable modules.

**Unused module-level imports.** A module-level import binds a name in
the module namespace; it is unused when no expression in the module
reads that name. A name counts as read when it appears as a ``Name``
anywhere in the module, inside a string annotation (``"RunSpec"``), or
in the module's ``__all__`` (a re-export). ``from __future__ import ...``
is never flagged, and an import line carrying ``# noqa: F401`` is an
intentional side-effect import.

Only statements directly in the module body count as module-level, plus
those nested in a top-level ``if``/``try`` block (``TYPE_CHECKING``
guards, optional-dependency fallbacks); imports inside functions and
classes are left alone.

**Broad excepts.** ``except Exception``, ``except BaseException`` and a
bare ``except:`` (alone or in a tuple) turn any bug into a silent
fallback. Each one allowed under ``src/`` is listed in
:data:`BROAD_EXCEPT_ALLOWED` with its reason; every other is flagged.

**Unreachable modules.** Every module under ``src/`` must be reachable
from a user path. The roots are the ``[project.scripts]`` modules of
``pyproject.toml``, every ``__main__.py``, and the files of ``examples/``
and ``benchmarks/``. An edge runs from a module to each module it
imports, at any depth of the module (lazy imports inside functions
count), and to each module it names in a string constant
(``registry._BUILTIN_MODULES`` loads strategies by name). A name
imported from a package resolves through the package ``__init__``'s
re-exports to the module that defines it, so ``from repro.runtime import
run_batch`` reaches ``runtime/executor.py``. An ``__init__``'s own
imports are not edges: otherwise every module a package re-exports
would count as live. Reaching a module reaches its packages. Each
exception is listed in :data:`REACHABILITY_ALLOWED` with its reason.

Exits non-zero with one ``path:line: ...`` (or ``path: ...``) report per
finding. Run from the repository root (CI does):
``python tools/check_imports.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _module_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Import statements of the module body and its top-level if/try blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body)
            yield from _module_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_imports(block)
            for handler in node.handlers:
                yield from _module_imports(handler.body)


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, including string annotations and ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if (
            isinstance(node, (ast.Assign, ast.AugAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return names


#: The broad ``except`` clauses allowed under ``src/``, keyed by file
#: (relative to ``src/``), enclosing function (qualified name) and the
#: clause's position among that function's broad clauses, each with its
#: reason.
BROAD_EXCEPT_ALLOWED = {
    ("repro/core/registry.py", "discover_plugins", 0):
        "an entry-point metadata backend that cannot list plugins means no plugins",
    ("repro/core/registry.py", "discover_plugins", 1):
        "a broken third-party plugin warns instead of breaking every registry consumer",
}

_BROAD = ("Exception", "BaseException")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(t is None or (isinstance(t, ast.Name) and t.id in _BROAD) for t in types)


def broad_excepts(path: Path, root: Path = SRC) -> List[Tuple[int, str]]:
    """``(line, enclosing function's qualified name)`` of each broad
    ``except`` in ``path`` that :data:`BROAD_EXCEPT_ALLOWED` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(root).as_posix()
    found: List[Tuple[int, str]] = []
    seen: dict = {}

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if func == "<module>" else f"{func}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler) and _is_broad(child):
                n = seen[func] = seen.get(func, -1) + 1
                if (rel, func, n) not in BROAD_EXCEPT_ALLOWED:
                    found.append((child.lineno, func))
            visit(child, func)

    visit(tree, "<module>")
    return found


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, bound name)`` of each unused module-level import in ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = _read_names(tree)
    unused: List[Tuple[int, str]] = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append((node.lineno, bound))
    return unused


#: The modules under ``src/`` that no user path reaches, each with its
#: reason. They ship in the package for the test suite and for
#: downstream test suites.
REACHABILITY_ALLOWED = {
    "repro.testkit.builders":
        "test support: the hand-built trace and catalog fixtures of the test suite",
    "repro.testkit.checkpoint_process":
        "test oracle: the event-driven reference BoundedCheckpointer's tau bound "
        "is tested against",
    "repro.testkit.conformance":
        "test support: the registry conformance suite (pytest -m conformance)",
    "repro.testkit.strategies":
        "test support: the shared Hypothesis generators (needs the test extra)",
}


class ModuleGraph:
    """The import graph of the modules under one ``src/`` root."""

    def __init__(self, root: Path) -> None:
        self.paths: Dict[str, Path] = {}
        for path in sorted(root.rglob("*.py")):
            parts = path.relative_to(root).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.paths[".".join(parts)] = path
        self._trees: Dict[str, ast.Module] = {}

    def tree(self, name: str) -> ast.Module:
        if name not in self._trees:
            path = self.paths[name]
            self._trees[name] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        return self._trees[name]

    def is_package(self, name: str) -> bool:
        return self.paths[name].name == "__init__.py"

    def _absolute(self, importer: Optional[str], node: ast.ImportFrom) -> str:
        """The module a ``from ... import`` names, relative levels resolved."""
        if not node.level or importer is None:
            return node.module or ""
        base = importer.split(".")
        if not self.is_package(importer):
            base = base[:-1]
        base = base[: len(base) - (node.level - 1)]
        return ".".join(base + ([node.module] if node.module else []))

    def resolve(self, package: str, attr: str, seen: Tuple[str, ...] = ()) -> str:
        """The module that defines ``package.attr``: a submodule of that
        name, else the module the package ``__init__`` re-exports it
        from, else the package itself."""
        if f"{package}.{attr}" in self.paths:
            return f"{package}.{attr}"
        if package in seen or not self.is_package(package):
            return package
        for node in _module_imports(self.tree(package).body):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == attr:
                    source = self._absolute(package, node)
                    if source in self.paths:
                        return self.resolve(source, alias.name, seen + (package,))
        return package

    def edges(self, tree: ast.Module, importer: Optional[str]) -> Set[str]:
        """The modules under the root that ``tree`` imports or names."""
        out: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out.update(a.name for a in node.names if a.name in self.paths)
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute(importer, node)
                if source in self.paths:
                    out.update(self.resolve(source, a.name) for a in node.names)
            elif isinstance(node, ast.Constant) and node.value in self.paths:
                out.add(node.value)
        return out

    def reached(self, roots: Set[str], external: List[Path]) -> Set[str]:
        """Every module reached from the ``roots`` modules and from the
        imports of the ``external`` files (which lie outside the root)."""
        todo = set(roots)
        for path in external:
            todo |= self.edges(ast.parse(path.read_text(encoding="utf-8")), None)
        seen: Set[str] = set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            # Importing a module imports its packages; an __init__'s own
            # imports are re-exports, resolved where a name is imported.
            parts = name.split(".")
            todo.update(".".join(parts[:i]) for i in range(1, len(parts)))
            if not self.is_package(name):
                todo |= self.edges(self.tree(name), name)
        return seen


def _script_modules(pyproject: Path) -> Set[str]:
    """The modules of ``pyproject.toml``'s ``[project.scripts]`` entries."""
    text = pyproject.read_text(encoding="utf-8").partition("[project.scripts]")[2]
    section = text.split("\n[", 1)[0]
    return set(re.findall(r'^\S+\s*=\s*"([\w.]+):', section, flags=re.MULTILINE))


def unreachable_modules(
    repo: Path = REPO, allowed: Mapping[str, str] = REACHABILITY_ALLOWED
) -> List[str]:
    """One ``path: ...`` line per module under ``repo/src`` that no root
    reaches and ``allowed`` does not list, then one per stale entry of
    ``allowed`` (a module that is reachable or does not exist)."""
    root = repo / "src"
    graph = ModuleGraph(root)
    roots = {n for n in _script_modules(repo / "pyproject.toml") if n in graph.paths}
    roots |= {n for n, p in graph.paths.items() if p.name == "__main__.py"}
    external = [p for d in ("examples", "benchmarks") for p in sorted((repo / d).rglob("*.py"))]
    reached = graph.reached(roots, external)
    problems = [
        f"{graph.paths[n].relative_to(repo)}: unreachable module {n!r} "
        "(no entry point, __main__, example or benchmark imports it)"
        for n in graph.paths if n not in reached and n not in allowed
    ]
    problems += [
        f"REACHABILITY_ALLOWED lists {n!r}, which "
        + ("is reachable" if n in reached else "does not exist")
        for n in sorted(allowed) if n in reached or n not in graph.paths
    ]
    return problems


def check(root: Path = SRC) -> List[str]:
    """One ``path:line: ...`` line per finding under ``root``: unused
    imports, then broad excepts, file by file."""
    problems: List[str] = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root.parent)
        problems += [
            f"{where}:{line}: unused import {name!r}" for line, name in unused_imports(path)
        ]
        problems += [
            f"{where}:{line}: broad except in {func}"
            for line, func in broad_excepts(path, root)
        ]
    return problems


def main() -> int:
    problems = check() + unreachable_modules()
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} finding(s)")
        return 1
    print(f"no unused module-level imports, unlisted broad excepts or unlisted "
          f"unreachable modules under {SRC.relative_to(REPO)}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
