"""TRACING.md must describe the real event model (satellite of CI check)."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_tracing_docs_checker_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "TRACING.md OK" in proc.stdout
    assert "API.md OK" in proc.stdout


def test_every_event_class_named_in_tracing_md():
    from repro.obs import EVENT_TYPES

    doc = (REPO / "docs" / "TRACING.md").read_text(encoding="utf-8")
    for wire, cls in EVENT_TYPES.items():
        assert f"`{cls.__name__}`" in doc
        assert f"`{wire}`" in doc
