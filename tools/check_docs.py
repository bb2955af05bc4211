#!/usr/bin/env python
"""Keep the reference docs honest about the code they describe.

``DOCS`` lists each checked document with the code surface it must match.
Every check runs in both directions — nothing documented that the code
lacks, nothing in the code left undocumented:

* ``docs/TRACING.md`` — each ``### `Class` — `wire-name``` heading names
  a registered ``repro.obs`` event with that wire name, every event is
  documented, and each heading's field table lists exactly the event
  dataclass's fields;
* ``docs/FLEET.md`` — the "CLI reference" table lists exactly the
  ``repro-fleet`` parser's flags, and the "Metrics glossary" documents
  every ``repro.fleet.report`` dataclass with exactly its fields;
* ``docs/STRATEGIES.md`` — the "Family overview" table and the "Strategy
  catalog" sections match the strategy registry: display names,
  synthesis weights, each family's spec arguments (name, kind,
  required, CLI flag, in schema order), and the ``vectorizable`` flag
  of each family's example instance;
* ``docs/DATA.md`` — the "repro-calibrate reference" and "Ingest CLI
  reference" tables list exactly their parsers' flags;
* ``docs/API.md`` — the ``- **`name`**`` bullets opening each
  ``## `module` `` section name exactly that module's ``__all__``.

A flag with a parser ``choices`` list must name every accepted choice
(in backticks) in its documented meaning — adding an ``--engine``
selector without documenting it fails here. Multi-valued flags
(``--region``, ``--size``) describe their domain in prose instead.

Exits non-zero with a per-problem report when a doc and its code drift.
Run from the repository root (CI does): ``python tools/check_docs.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import registry  # noqa: E402
from repro.fleet import report as fleet_report  # noqa: E402
from repro.fleet.cli import build_parser as fleet_parser  # noqa: E402
from repro.obs import EVENT_TYPES  # noqa: E402
from repro.traces.calibrate_cli import build_parser as calibrate_parser  # noqa: E402
from repro.traces.ingest import DEFAULT_CHUNK_RECORDS  # noqa: E402

#: ``## Section`` headings split a doc.
SECTION = re.compile(r"^##\s+(?P<title>.+?)\s*$")
#: ``| `--flag` | ... |`` rows in a CLI-reference table.
FLAG_ROW = re.compile(r"^\|\s*`(?P<flag>--?[a-z][a-z-]*)`\s*\|(?P<rest>.*)$")
#: ``| `field` | ... |`` rows in a dataclass field table.
FIELD_ROW = re.compile(r"^\|\s*`(?P<field>\w+)`\s*\|")
#: ``### `ClassName` — `wire-name``` event headings (TRACING.md).
EVENT_HEADING = re.compile(r"^###\s+`(?P<key>\w+)`\s+—\s+`(?P<wire>[a-z-]+)`\s*$")
#: ``### `ClassName``` glossary headings (FLEET.md).
CLASS_HEADING = re.compile(r"^###\s+`(?P<key>\w+)`\s*$")
#: ``### `kind` — Display Name`` catalog headings (STRATEGIES.md).
KIND_HEADING = re.compile(r"^###\s+`(?P<key>[\w-]+)`\s+—\s+(?P<display>.+?)\s*$")
#: ``| `kind` | name | yes/no | weight |`` rows in the strategy overview.
OVERVIEW_ROW = re.compile(
    r"^\|\s*`(?P<kind>[\w-]+)`\s*\|\s*(?P<display>[^|]+?)\s*\|"
    r"\s*(?P<vec>yes|no)\s*\|\s*(?P<weight>[\d.]+)\s*\|"
)
#: ``| `name` | kind | yes/no | default | flag |`` rows in strategy arg tables.
ARG_ROW = re.compile(
    r"^\|\s*`(?P<name>\w+)`\s*\|\s*(?P<kind>\w+)\s*\|\s*(?P<required>yes|no)\s*\|"
    r"\s*[^|]+?\s*\|\s*(?P<cli>`--[\w-]+`|—)\s*\|"
)
#: ``## `module` — Title`` section titles (API.md).
MODULE_TITLE = re.compile(r"^`(?P<module>[\w.]+)`")
#: ``- **`name`** (kind) — ...`` bullets (API.md).
NAME_BULLET = re.compile(r"^- \*\*`(?P<name>\w+)`\*\*")


# ------------------------------------------------------------ doc parsing
def sections(text: str) -> Dict[Optional[str], List[str]]:
    """The lines of each ``## `` section, keyed by title (``None`` before
    the first heading)."""
    out: Dict[Optional[str], List[str]] = {None: []}
    current: Optional[str] = None
    for line in text.splitlines():
        s = SECTION.match(line)
        if s:
            current = s.group("title")
            out.setdefault(current, [])
        else:
            out[current].append(line)
    return out


def headed_rows(
    lines: List[str], heading: re.Pattern, row: re.Pattern
) -> Dict[str, Tuple[re.Match, List[re.Match]]]:
    """``{key: (heading match, row matches)}`` for each ``###`` heading
    matching ``heading``, collecting the ``row`` lines under it."""
    out: Dict[str, Tuple[re.Match, List[re.Match]]] = {}
    current: Optional[str] = None
    for line in lines:
        h = heading.match(line)
        if h:
            current = h.group("key")
            out[current] = (h, [])
        elif current is not None:
            r = row.match(line)
            if r:
                out[current][1].append(r)
    return out


def flag_rows(lines: List[str]) -> Dict[str, str]:
    """``{documented flag: rest of its row}`` of a CLI-reference table."""
    return {m.group("flag"): m.group("rest") for m in map(FLAG_ROW.match, lines) if m}


# ------------------------------------------------------------ shared checks
def check_flags(
    where: str, doc: str, doc_flags: Dict[str, str], parser: argparse.ArgumentParser
) -> List[str]:
    """The documented flags against the parser's ``--`` options, and each
    scalar ``choices`` flag's meaning against its choices."""
    problems: List[str] = []
    actions = {
        opt: action
        for action in parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    for flag in doc_flags:
        if flag not in actions:
            problems.append(f"{where}: {doc} documents unknown flag {flag}")
    for flag, action in actions.items():
        if flag not in doc_flags:
            problems.append(f"{where}: flag {flag} missing from {doc}")
        elif action.choices and action.nargs is None:
            documented = set(re.findall(r"`([^`]+)`", doc_flags[flag]))
            missing = [str(c) for c in action.choices if str(c) not in documented]
            if missing:
                problems.append(
                    f"{where}: {flag} choice(s) {', '.join(missing)} not "
                    f"mentioned in the {doc} meaning column"
                )
    return problems


def check_fields(
    doc: str, what: str, documented: Dict[str, List[str]], real: Dict[str, type]
) -> List[str]:
    """Documented classes and their field tables against the dataclasses."""
    problems: List[str] = []
    for name, doc_fields in documented.items():
        if name not in real:
            problems.append(f"{doc} documents unknown {what} {name!r}")
            continue
        real_fields = [f.name for f in dataclasses.fields(real[name])]
        for f in doc_fields:
            if f not in real_fields:
                problems.append(f"{name}: documented field {f!r} does not exist")
        for f in real_fields:
            if f not in doc_fields:
                problems.append(f"{name}: field {f!r} missing from {doc}")
    for name in real:
        if name not in documented:
            problems.append(f"{what} {name} is not documented in {doc}")
    return problems


def field_names(rows: List[re.Match]) -> List[str]:
    return [r.group("field") for r in rows if r.group("field") != "field"]


# ------------------------------------------------------------ per-doc checks
Check = Callable[[Dict[Optional[str], List[str]]], Tuple[List[str], str]]


def check_tracing(doc: Dict[Optional[str], List[str]]) -> Tuple[List[str], str]:
    # Event headings may sit in any section; a new ``##`` ends the last one.
    events = {}
    for lines in doc.values():
        events.update(headed_rows(lines, EVENT_HEADING, FIELD_ROW))
    wires = {cls.__name__: wire for wire, cls in EVENT_TYPES.items()}
    problems = [
        f"{name}: documented wire name {h.group('wire')!r} != actual {wires[name]!r}"
        for name, (h, _) in events.items()
        if name in wires and h.group("wire") != wires[name]
    ]
    problems += check_fields(
        "TRACING.md",
        "event class",
        {name: field_names(rows) for name, (_, rows) in events.items()},
        {cls.__name__: cls for cls in EVENT_TYPES.values()},
    )
    return problems, (
        f"{len(events)} event classes documented, wire names and fields all "
        "match repro.obs"
    )


def check_fleet(doc: Dict[Optional[str], List[str]]) -> Tuple[List[str], str]:
    flags = flag_rows(doc.get("CLI reference", []))
    glossary = headed_rows(doc.get("Metrics glossary", []), CLASS_HEADING, FIELD_ROW)
    problems = check_flags("repro-fleet", "FLEET.md", flags, fleet_parser())
    problems += check_fields(
        "FLEET.md",
        "report class",
        {name: field_names(rows) for name, (_, rows) in glossary.items()},
        {name: getattr(fleet_report, name) for name in fleet_report.__all__},
    )
    return problems, (
        f"{len(flags)} CLI flags and {len(glossary)} report classes documented, "
        "all match repro.fleet"
    )


def check_strategies(doc: Dict[Optional[str], List[str]]) -> Tuple[List[str], str]:
    infos = {info.kind: info for info in registry.strategy_infos()}
    overview = {
        m.group("kind"): m
        for m in map(OVERVIEW_ROW.match, doc.get("Family overview", []))
        if m
    }
    catalog = headed_rows(doc.get("Strategy catalog", []), KIND_HEADING, ARG_ROW)
    problems: List[str] = []
    for kind, m in overview.items():
        info = infos.get(kind)
        if info is None:
            problems.append(f"overview lists unknown kind `{kind}`")
            continue
        if m.group("display") != info.display_name:
            problems.append(
                f"{kind}: overview display name {m.group('display')!r} != "
                f"{info.display_name!r}"
            )
        vec = m.group("vec") == "yes"
        built = registry.example_spec(kind).build().vectorizable
        if vec != built:
            problems.append(
                f"{kind}: overview says vectorizable={vec}, "
                f"the example instance says {built}"
            )
        weight = float(m.group("weight"))
        if abs(weight - info.synthesis_weight) > 1e-9:
            problems.append(
                f"{kind}: overview weight {weight} != {info.synthesis_weight}"
            )
    problems += [
        f"kind `{kind}` missing from the overview table"
        for kind in infos if kind not in overview
    ]
    for kind, (heading, rows) in catalog.items():
        info = infos.get(kind)
        if info is None:
            problems.append(f"catalog documents unknown kind `{kind}`")
            continue
        if heading.group("display") != info.display_name:
            problems.append(
                f"{kind}: catalog heading {heading.group('display')!r} != "
                f"{info.display_name!r}"
            )
        documented = [r.group("name") for r in rows]
        schema = {a.name: a for a in info.arg_schema}
        if documented != list(schema):
            problems.append(
                f"{kind}: documented args {documented} != schema order {list(schema)}"
            )
        for r in rows:
            spec = schema.get(r.group("name"))
            if spec is None:
                continue  # already reported by the order check
            where = f"{kind}.{spec.name}"
            if r.group("kind") != spec.kind:
                problems.append(
                    f"{where}: documented kind {r.group('kind')!r} != {spec.kind!r}"
                )
            required = r.group("required") == "yes"
            if required != spec.required:
                problems.append(
                    f"{where}: documented required={required}, "
                    f"schema says {spec.required}"
                )
            cli = r.group("cli").strip("`")
            real_cli = "--" + spec.cli.replace("_", "-") if spec.cli is not None else "—"
            if cli != real_cli:
                problems.append(
                    f"{where}: documented CLI flag {cli!r} != {real_cli!r}"
                )
    problems += [
        f"kind `{kind}` has no catalog section" for kind in infos if kind not in catalog
    ]
    return problems, (
        f"{len(catalog)} families documented with "
        f"{sum(len(rows) for _, rows in catalog.values())} spec arguments, "
        "all match the registry"
    )


def _ingest_parser() -> argparse.ArgumentParser:
    # The module-CLI parser is built inline in repro.traces.ingest.main;
    # mirror it here from the same constants so the table is checked
    # against the real defaults.
    p = argparse.ArgumentParser(prog="python -m repro.traces.ingest")
    p.add_argument("archives", nargs="+")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--chunk-records", type=int, default=DEFAULT_CHUNK_RECORDS)
    return p


#: DATA.md section title -> the parser its flag table must match.
DATA_SURFACES = {
    "repro-calibrate reference": calibrate_parser,
    "Ingest CLI reference": _ingest_parser,
}


def check_data(doc: Dict[Optional[str], List[str]]) -> Tuple[List[str], str]:
    problems: List[str] = []
    n = 0
    for title, parser in DATA_SURFACES.items():
        flags = flag_rows(doc.get(title, []))
        n += len(flags)
        if not flags:
            problems.append(f"DATA.md section {title!r} is missing or has no flag table")
        else:
            problems += check_flags(title, "DATA.md", flags, parser())
    return problems, (
        f"{n} CLI flags documented across {len(DATA_SURFACES)} reference "
        "tables, all match the parsers"
    )


def check_api(doc: Dict[Optional[str], List[str]]) -> Tuple[List[str], str]:
    problems: List[str] = []
    n = 0
    modules = {
        m.group("module"): lines
        for title, lines in doc.items()
        if (m := MODULE_TITLE.match(title or ""))
    }
    for name, lines in modules.items():
        module = importlib.import_module(name)
        # The name list opens the section; bullets under its ``###``
        # subsections (the ``--engine`` values) are prose.
        end = next((i for i, line in enumerate(lines) if line.startswith("### ")), None)
        documented = [b.group("name") for b in map(NAME_BULLET.match, lines[:end]) if b]
        n += len(documented)
        problems += [
            f"{name}: documented name {d!r} does not exist"
            for d in documented if not hasattr(module, d)
        ]
        problems += [
            f"{name}: {a!r} (in __all__) missing from API.md"
            for a in getattr(module, "__all__", ()) if a not in documented
        ]
    return problems, f"{n} names documented across {len(modules)} modules, all match __all__"


#: Checked doc -> (what it must match, its check).
DOCS: Dict[str, Tuple[str, Check]] = {
    "TRACING.md": ("repro.obs", check_tracing),
    "FLEET.md": ("repro.fleet", check_fleet),
    "STRATEGIES.md": ("the registry", check_strategies),
    "DATA.md": ("the ingest/refit CLIs", check_data),
    "API.md": ("the package __all__ lists", check_api),
}


def main() -> int:
    failed = False
    for name, (subject, check) in DOCS.items():
        path = REPO / "docs" / name
        if not path.exists():
            print(f"missing {path}")
            failed = True
            continue
        problems, summary = check(sections(path.read_text(encoding="utf-8")))
        if problems:
            failed = True
            print(f"{name} is out of sync with {subject} ({len(problems)} problem(s)):")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"{name} OK: {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
