#!/usr/bin/env python
"""Compare fresh benchmark numbers against the committed baseline.

Usage (what CI's perf-smoke step runs after the benchmark tests)::

    python tools/check_bench_regression.py \\
        --baseline BENCH_perf.json \\
        --current benchmarks/output/BENCH_perf.current.json

Both files share the schema written by ``benchmarks/test_bench_decisions.py``::

    {"schema": 1, "benchmarks": {"<name>": {"value": 1.23, "unit": "s"|"us"|"x"}}}

``s`` entries are wall-clock and ``us`` entries per-operation latency
(lower is better); ``x`` entries are speedup ratios (higher is better).
An entry may also carry ``"cores"``, the core count it was taken on.
Only names present in *both* files are compared
— a partial benchmark run (the PR lane runs just the decision group)
gates what it measured and reports the rest as skipped. The tolerance is
deliberately generous: timings on shared CI runners jitter, and this gate
exists to catch order-of-magnitude regressions (a naive-path fallback, an
accidentally quadratic query), not 5% noise.

Exit status: 0 when every compared entry is within tolerance, 1 otherwise.
To refresh the baseline after an intentional perf change, copy the
current file over ``BENCH_perf.json`` and commit it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 2.0


def load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")
    if data.get("schema") != 1:
        sys.exit(f"error: {path} has unknown schema {data.get('schema')!r}")
    return data.get("benchmarks", {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=Path("BENCH_perf.json"))
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("benchmarks/output/BENCH_perf.current.json"),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed slowdown factor per entry (default %(default)s): a time "
        "may grow to baseline*tol, a speedup may shrink to baseline/tol",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 1.0:
        parser.error("tolerance must be >= 1.0")

    baseline = load(args.baseline)
    current = load(args.current)
    failures = []
    compared = 0
    for name in sorted(baseline):
        if name not in current:
            print(f"  skip  {name:35s} (not measured in this run)")
            continue
        base, unit = baseline[name]["value"], baseline[name].get("unit", "s")
        cur = current[name]["value"]
        compared += 1
        if unit == "x":  # speedup ratio: higher is better
            ok = cur >= base / args.tolerance
            verdict = f"{cur:10.3f}x vs baseline {base:8.3f}x (floor {base / args.tolerance:.3f}x)"
        else:  # wall-clock or latency: lower is better
            ok = cur <= base * args.tolerance
            verdict = (
                f"{cur:10.4f}{unit} vs baseline {base:8.4f}{unit} "
                f"(ceiling {base * args.tolerance:.4f}{unit})"
            )
        print(f"  {'ok' if ok else 'FAIL':>4s}  {name:35s} {verdict}")
        if not ok:
            failures.append(name)
    for name in sorted(set(current) - set(baseline)):
        print(f"  new   {name:35s} (no baseline yet — add it to {args.baseline})")

    if not compared:
        sys.exit("error: no overlapping benchmark entries to compare")
    if failures:
        print(f"\n{len(failures)} regression(s) beyond {args.tolerance}x tolerance: "
              + ", ".join(failures))
        return 1
    print(f"\nall {compared} compared benchmark(s) within {args.tolerance}x tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
