#!/usr/bin/env python
"""Lint ``src/`` with stdlib ``ast`` only: unused imports and broad excepts.

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

Exits non-zero with one ``path:line: ...`` report per finding.
Run from the repository root (CI does): ``python tools/check_imports.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

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
    problems = check()
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} finding(s)")
        return 1
    print(f"no unused module-level imports or unlisted broad excepts under "
          f"{SRC.relative_to(REPO)}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
