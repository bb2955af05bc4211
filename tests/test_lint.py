"""The stdlib-``ast`` lint gate: no unused module-level imports, no
unlisted broad ``except`` clauses and no unlisted unreachable modules
under src/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "check_imports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("check_imports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_has_no_unused_imports():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_only_unused_names(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import TYPE_CHECKING, List, Tuple\n"
        "from json import dumps\n"
        "import atexit  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Decimal') -> List[int]:\n"
        "    return [os.path.sep, dataclass]\n"
    )
    found = _tool().unused_imports(pkg / "mod.py")
    assert [name for _, name in found] == ["math", "field", "Tuple"]
    assert _tool().check(tmp_path / "src") == [
        f"src/pkg/mod.py:{line}: unused import {name!r}" for line, name in found
    ]


def test_checker_flags_only_unlisted_broad_excepts(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "def narrow():\n"
        "    try:\n"
        "        pass\n"
        "    except (TypeError, KeyError):\n"
        "        pass\n"
        "def broad():\n"
        "    try:\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "    def inner():\n"
        "        try:\n"
        "            pass\n"
        "        except (ValueError, BaseException) as exc:\n"
        "            raise exc\n"
        "try:\n"
        "    pass\n"
        "except Exception:\n"
        "    pass\n"
    )
    tool = _tool()
    root = tmp_path / "src"
    found = tool.broad_excepts(pkg / "mod.py", root)
    assert found == [(9, "broad"), (13, "broad"), (18, "broad.inner"), (22, "<module>")]
    assert tool.check(root) == [
        f"src/pkg/mod.py:{line}: broad except in {func}" for line, func in found
    ]
    # Listing a clause by file, function and position allows exactly it
    # (``tool`` is this test's own copy of the module).
    tool.BROAD_EXCEPT_ALLOWED[("pkg/mod.py", "broad", 1)] = "test"
    assert tool.broad_excepts(pkg / "mod.py", root) == [
        (9, "broad"), (18, "broad.inner"), (22, "<module>")
    ]


def test_checker_flags_only_unlisted_unreachable_modules(tmp_path):
    files = {
        "pyproject.toml": '[project.scripts]\npkg-cli = "pkg.cli:main"\n\n[tool.x]\n',
        # An __init__'s own imports are re-exports, not edges: the
        # re-exported orphan stays unreachable.
        "src/pkg/__init__.py": "from pkg.orphan import Orphan\nfrom pkg.lib import helper\n",
        "src/pkg/cli.py": "from pkg import helper\nPLUGINS = ('pkg.plugin',)\n",
        "src/pkg/lib.py": "def helper():\n    return 1\n",
        "src/pkg/plugin.py": "NAME = 'named only by string'\n",
        "src/pkg/orphan.py": "class Orphan:\n    pass\n",
        "src/pkg/allowed.py": "",
        "src/pkg/tool/__init__.py": "",
        "src/pkg/tool/__main__.py": "def main():\n    from .run import go\n",
        "src/pkg/tool/run.py": "def go():\n    pass\n",
        "examples/demo.py": "import pkg.shown\n",
        "src/pkg/shown.py": "",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    tool = _tool()
    assert tool.unreachable_modules(tmp_path, {"pkg.allowed": "test"}) == [
        "src/pkg/orphan.py: unreachable module 'pkg.orphan' "
        "(no entry point, __main__, example or benchmark imports it)"
    ]
    # Allowlist entries go stale when their module is reached or deleted.
    stale = tool.unreachable_modules(
        tmp_path, {"pkg.allowed": "test", "pkg.orphan": "test", "pkg.lib": "test", "pkg.gone": "test"}
    )
    assert stale == [
        "REACHABILITY_ALLOWED lists 'pkg.gone', which does not exist",
        "REACHABILITY_ALLOWED lists 'pkg.lib', which is reachable",
    ]
    # The real tree's allowlist gives a reason for every entry.
    assert all(reason.strip() for reason in tool.REACHABILITY_ALLOWED.values())
