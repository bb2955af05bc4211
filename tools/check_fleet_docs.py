#!/usr/bin/env python
"""Keep ``docs/FLEET.md`` honest about the ``repro.fleet`` surface.

Checks, in both directions:

* every flag in FLEET.md's CLI-reference table exists on
  ``repro.fleet.cli.build_parser()``, and every parser flag is
  documented;
* every flag with a parser ``choices`` list (e.g. ``--engine``)
  mentions each accepted choice in its documented meaning — adding an
  engine selector without documenting it fails here;
* every report dataclass in the metrics glossary exists in
  ``repro.fleet.report``, every documented field exists on it, and every
  dataclass field appears in the glossary table;
* every glossary-eligible report dataclass has a glossary section.

Exits non-zero with a per-problem report when the doc and the code
drift. Run from the repository root (CI does):
``python tools/check_fleet_docs.py``.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.fleet import report as fleet_report  # noqa: E402
from repro.fleet.cli import build_parser  # noqa: E402

DOC = REPO / "docs" / "FLEET.md"

#: ``## Section`` headings split the doc.
SECTION = re.compile(r"^##\s+(?P<title>.+?)\s*$")
#: ``### `ClassName```  headings in the metrics glossary.
CLASS_HEADING = re.compile(r"^###\s+`(?P<cls>\w+)`\s*$")
#: ``| `--flag` | ... |`` rows in the CLI-reference table.
FLAG_ROW = re.compile(r"^\|\s*`(?P<flag>--[a-z][a-z-]*)`\s*\|(?P<rest>.*)$")
#: ``| `field` | ... |`` rows in the glossary field tables.
FIELD_ROW = re.compile(r"^\|\s*`(?P<field>\w+)`\s*\|")


def parse_doc(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """(documented CLI flag -> row text, documented class -> field names)."""
    flags: dict[str, str] = {}
    classes: dict[str, list[str]] = {}
    section: str | None = None
    current_cls: str | None = None
    for line in text.splitlines():
        s = SECTION.match(line)
        if s:
            section = s.group("title")
            current_cls = None
            continue
        if section == "CLI reference":
            f = FLAG_ROW.match(line)
            if f:
                flags[f.group("flag")] = f.group("rest")
        elif section == "Metrics glossary":
            c = CLASS_HEADING.match(line)
            if c:
                current_cls = c.group("cls")
                classes[current_cls] = []
                continue
            if current_cls is not None:
                f = FIELD_ROW.match(line)
                if f and f.group("field") != "field":
                    classes[current_cls].append(f.group("field"))
    return flags, classes


def main() -> int:
    if not DOC.exists():
        print(f"missing {DOC}")
        return 1
    doc_flags, doc_classes = parse_doc(DOC.read_text(encoding="utf-8"))
    problems: list[str] = []

    actions = {
        opt: action
        for action in build_parser()._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    for flag in doc_flags:
        if flag not in actions:
            problems.append(f"FLEET.md documents unknown repro-fleet flag {flag}")
    for flag, action in actions.items():
        if flag not in doc_flags:
            problems.append(f"repro-fleet flag {flag} missing from FLEET.md")
        elif action.choices and action.nargs is None:
            # A scalar choices-flag's documented meaning must name every
            # accepted value (in backticks) — e.g. --engine must list
            # auto/event. Multi-valued cohort filters
            # (--region, --size) describe their domain in prose instead.
            documented = set(re.findall(r"`([^`]+)`", doc_flags[flag]))
            missing = [str(c) for c in action.choices if str(c) not in documented]
            if missing:
                problems.append(
                    f"{flag}: choice(s) {', '.join(missing)} not mentioned "
                    f"in the FLEET.md meaning column"
                )

    real_classes = {
        name: [f.name for f in dataclasses.fields(getattr(fleet_report, name))]
        for name in fleet_report.__all__
    }
    for name, doc_fields in doc_classes.items():
        if name not in real_classes:
            problems.append(f"FLEET.md documents unknown report class {name!r}")
            continue
        for f in doc_fields:
            if f not in real_classes[name]:
                problems.append(f"{name}: documented field {f!r} does not exist")
        for f in real_classes[name]:
            if f not in doc_fields:
                problems.append(f"{name}: field {f!r} missing from FLEET.md")
    for name in real_classes:
        if name not in doc_classes:
            problems.append(f"report class {name} is not documented in FLEET.md")

    if problems:
        print(f"FLEET.md is out of sync with repro.fleet ({len(problems)} problem(s)):")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        f"FLEET.md OK: {len(doc_flags)} CLI flags and "
        f"{len(doc_classes)} report classes documented, all match repro.fleet"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
