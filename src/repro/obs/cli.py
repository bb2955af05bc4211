"""The ``repro-trace`` command: inspect JSONL decision traces.

``repro-trace summarize trace.jsonl`` renders, per run found in the file,
the event-type tally, the migration narrative ("N voluntary migrations, M
ahead of a bid crossing, K forced"), and optionally a chronological
decision timeline (``--timeline``, trimmed with ``--limit`` and filtered
with ``--types``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.decisions import (
    decision_timeline,
    event_counts,
    group_runs,
    migration_narrative,
)
from repro.errors import cli_main
from repro.obs.sinks import read_jsonl

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect JSONL decision traces written by --trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="per-run event tallies, migration narrative, timeline"
    )
    summarize.add_argument("path", help="JSONL trace file")
    summarize.add_argument(
        "--timeline",
        action="store_true",
        help="also print the chronological decision timeline per run",
    )
    summarize.add_argument(
        "--limit",
        type=int,
        default=40,
        metavar="N",
        help="max timeline lines per run (default 40; 0 = unlimited)",
    )
    summarize.add_argument(
        "--types",
        metavar="T1,T2",
        default=None,
        help="comma-separated event types to keep in the timeline",
    )
    return parser


def _summarize(args: argparse.Namespace) -> int:
    try:
        records = list(read_jsonl(args.path))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro-trace: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.path}: empty trace")
        return 0

    types = [t.strip() for t in args.types.split(",") if t.strip()] if args.types else None
    limit = None if args.limit == 0 else args.limit

    groups = group_runs(records)
    print(f"{args.path}: {len(records)} event(s) across {len(groups)} run(s)")
    for (experiment, run, seed), events in groups:
        heading = " / ".join(p for p in (experiment, run) if p) or "(untagged)"
        engine = str(events[0].get("engine", "")) if events else ""
        tag = f", {engine} engine" if engine else ""
        if events and events[0].get("deduped"):
            tag += ", deduped clone"
        print(f"\n== {heading} (seed {seed}{tag}) — {len(events)} event(s)")
        for etype, n in event_counts(events).items():
            print(f"  {etype:22s} {n}")
        print(f"  {migration_narrative(events)}")
        if args.timeline:
            print()
            print(decision_timeline(events, limit=limit, types=types))
    return 0


@cli_main
def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return _summarize(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-output: exit quietly,
        # pointing stdout at devnull so interpreter shutdown doesn't warn.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
