"""Every script under ``examples/`` runs to completion.

The examples are the first code a user copies, so each one runs in a
fresh interpreter, exactly as ``python examples/<name>.py`` would, and
must exit 0, leave its temporary directory empty and keep temporary
paths out of its output (so two runs print the same bytes).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ),
        # Examples that write scratch files put them under the test's tmp dir.
        "TMPDIR": str(scratch),
    }
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip()
    assert str(scratch) not in proc.stdout
    assert list(scratch.iterdir()) == []
