"""FLEET.md must describe the real CLI and report surface (mirrors CI)."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_fleet_docs_checker_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FLEET.md OK" in proc.stdout


def test_every_report_class_named_in_fleet_md():
    from repro.fleet import report

    doc = (REPO / "docs" / "FLEET.md").read_text(encoding="utf-8")
    for name in report.__all__:
        assert f"`{name}`" in doc


def test_fleet_md_linked_from_entry_points():
    for page in ("README.md", "docs/ARCHITECTURE.md", "docs/TESTING.md"):
        text = (REPO / page).read_text(encoding="utf-8")
        assert "FLEET.md" in text, f"{page} does not link docs/FLEET.md"
