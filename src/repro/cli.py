"""``repro-simulate`` — run custom scheduler simulations from the shell.

Examples::

    repro-simulate                                    # paper defaults
    repro-simulate --bidding reactive --size large
    repro-simulate --strategy multi-market --region us-east-1b
    repro-simulate --strategy multi-region --region us-east-1a eu-west-1a
    repro-simulate --mechanism ckpt+lr --pessimistic --seeds 1 2 3
    repro-simulate --strategy pure-spot --days 60
    repro-simulate --strategy index-tracking --region us-east-1a us-west-1a
    repro-simulate --strategy portfolio-bid --risk-cap 0.02 --region us-east-1a
    repro-simulate --csv history.csv --size small --region us-east-1a
    repro-simulate --segments segments/ --size small --region us-east-1a
    repro-simulate --fast --trace /tmp/t.jsonl --metrics
    repro-simulate --list-strategies

Strategy choices are enumerated from :mod:`repro.core.registry`, so
out-of-tree families registered through the ``repro.strategies`` entry
point show up here automatically.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro.analysis.tables import Table
from repro.core import registry
from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.results import aggregate
from repro.core.simulation import RunSpec, run_many, run_simulation_observed
from repro.obs import NULL_SINK, MemorySink, observe
from repro.runtime import ENGINE_KINDS, RunTelemetry, StrategySpec
from repro.errors import TraceFormatError
from repro.traces.calibration import REGIONS, SIZES, on_demand_price
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.loader import load_aws_csv
from repro.units import days
from repro.vm.mechanisms import Mechanism, PESSIMISTIC_PARAMS, TYPICAL_PARAMS

__all__ = ["main", "build_parser"]

MECHANISMS = {m.value: m for m in Mechanism}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Host an always-on service on the simulated spot market.",
    )
    p.add_argument("--strategy", choices=registry.strategy_kinds(), default="single")
    p.add_argument("--list-strategies", action="store_true",
                   help="print every registered hosting strategy and exit")
    p.add_argument("--bidding", choices=("proactive", "reactive"), default="proactive")
    p.add_argument("--k", type=float, default=4.0, help="proactive bid multiplier")
    p.add_argument("--mechanism", choices=sorted(MECHANISMS), default="ckpt+lr+live")
    p.add_argument("--pessimistic", action="store_true",
                   help="use the pessimistic mechanism parameters")
    p.add_argument("--region", nargs="+", default=["us-east-1a"], choices=REGIONS,
                   metavar="AZ", help="availability zone(s)")
    p.add_argument("--size", choices=SIZES, default="small")
    p.add_argument("--units", type=int, default=8,
                   help="fleet size in small-equivalents (multi strategies)")
    p.add_argument("--seeds", type=int, nargs="+", default=[11, 23, 37])
    p.add_argument("--days", type=float, default=30.0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the per-seed fan-out "
                   "(default 1 = serial; results are identical)")
    p.add_argument("--engine", choices=ENGINE_KINDS, default="auto",
                   help="execution engine: 'auto' (default) vectorizes and "
                   "dedupes eligible runs, 'event' forces the per-event "
                   "engine — results are bit-identical either way")
    p.add_argument("--csv", type=str, default=None,
                   help="replay an AWS-format spot history instead of "
                   "generating traces (single-market strategies only)")
    p.add_argument("--segments", type=str, default=None, metavar="DIR",
                   help="replay an ingested mmap segment directory "
                   "(see repro.traces.ingest) instead of generating traces "
                   "(single-market strategies only)")
    p.add_argument("--ledger", metavar="PATH", default=None,
                   help="journal each completed seed to a crash-safe run "
                   "ledger at PATH (a directory gets one file per batch)")
    p.add_argument("--resume", action="store_true",
                   help="with --ledger: replay seeds already journaled and "
                   "run only the remainder (byte-identical results)")
    p.add_argument("--stability-weight", type=float, default=2.0)
    p.add_argument("--band", type=float, default=0.15,
                   help="index-tracking: tracking-error band above the index")
    p.add_argument("--risk-cap", type=float, default=0.05,
                   help="portfolio-bid: max predicted revocation risk")
    p.add_argument("--fast", action="store_true",
                   help="smoke run: horizon capped at 10 days, first two seeds")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a JSONL decision trace of every run to PATH "
                   "(inspect with 'repro-trace summarize PATH')")
    p.add_argument("--metrics", action="store_true",
                   help="print the merged run-metrics summary after the table")
    return p


def _single_market_kind(kind: str) -> bool:
    """Does this strategy pin itself to one market (a ``"market"`` arg)?"""
    info = registry.strategy_info(kind)
    return any(a.kind == "market" for a in info.arg_schema)


def _make_strategy(args) -> Tuple[StrategySpec, tuple]:
    """Returns (strategy spec, regions tuple), built from the registered
    arg schema — no per-strategy branching."""
    info = registry.strategy_info(args.strategy)
    wants_regions = any(a.kind == "regions" for a in info.arg_schema)
    regions = tuple(args.region) if wants_regions else (args.region[0],)
    spec_args: List[object] = []
    options = {}
    for spec in info.arg_schema:
        if spec.kind == "market":
            spec_args.append(MarketKey(args.region[0], args.size))
        elif spec.kind == "region":
            spec_args.append(args.region[0])
        elif spec.kind == "regions":
            spec_args.append(regions)
        elif spec.cli is not None:
            # Scalar knob surfaced as a flag; others keep their defaults.
            options[spec.name] = getattr(args, spec.cli)
    return StrategySpec.of(args.strategy, *spec_args, **options), regions


def _render_strategy_list() -> str:
    t = Table(
        headers=("kind", "name", "vector", "synth w", "summary"),
        title="registered hosting strategies (repro.core.registry)",
    )
    for info in registry.strategy_infos():
        vector = registry.example_spec(info.kind).build().vectorizable
        t.add_row(
            info.kind,
            info.display_name,
            "yes" if vector else "no",
            info.synthesis_weight,
            info.summary,
        )
    lines = [t.render(), ""]
    for info in registry.strategy_infos():
        if info.citation:
            lines.append(f"  {info.kind}: {info.citation}")
    return "\n".join(lines)


def _csv_catalog(args) -> TraceCatalog:
    trace = load_aws_csv(args.csv)
    key = MarketKey(args.region[0], args.size)
    od = on_demand_price(args.region[0], args.size)
    return TraceCatalog({key: trace}, {key: od}, trace.horizon)


def _segment_catalog(args) -> TraceCatalog:
    from repro.traces.ingest import load_segment_catalog

    catalog = load_segment_catalog(args.segments)
    key = MarketKey(args.region[0], args.size)
    if key not in catalog:
        raise TraceFormatError(
            f"market {key} not in segment directory {args.segments}; "
            f"available: {[str(k) for k in catalog.markets()]}"
        )
    # Restrict to the requested market so the single-market strategy sees
    # exactly the same catalog shape as the --csv path.
    return catalog.restricted([key])


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_strategies:
        print(_render_strategy_list())
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.resume and args.ledger is None:
        print("--resume needs --ledger PATH", file=sys.stderr)
        return 2
    if args.csv is not None and args.segments is not None:
        print("--csv and --segments are mutually exclusive", file=sys.stderr)
        return 2
    if args.ledger is not None and (args.csv is not None or args.segments is not None):
        # Replays are single in-process runs outside run_batch; there is
        # no batch to journal.
        print("--ledger does not apply to --csv/--segments replays", file=sys.stderr)
        return 2
    if args.fast:
        args.days = min(args.days, 10.0)
        args.seeds = args.seeds[:2]
    bidding = (
        ProactiveBidding(k=args.k) if args.bidding == "proactive" else ReactiveBidding()
    )
    strategy, regions = _make_strategy(args)
    catalog = None
    horizon = days(args.days)
    if args.csv is not None or args.segments is not None:
        flag = "--csv" if args.csv is not None else "--segments"
        if not _single_market_kind(args.strategy):
            print(f"{flag} supports single-market strategies only", file=sys.stderr)
            return 2
        catalog = _csv_catalog(args) if args.csv is not None else _segment_catalog(args)
        horizon = catalog.horizon

    spec = RunSpec(
        strategy=strategy,
        bidding=bidding,
        mechanism=MECHANISMS[args.mechanism],
        params=PESSIMISTIC_PARAMS if args.pessimistic else TYPICAL_PARAMS,
        horizon_s=horizon,
        regions=regions,
        sizes=tuple(SIZES),
        label=f"{args.bidding}/{args.strategy}",
    )

    t = Table(
        headers=("seed", "norm cost %", "unavail %", "downtime (s)",
                 "forced", "planned+rev", "spot $", "od $"),
        title=f"{args.strategy} / {args.bidding} / {args.mechanism}"
        f"{' (pessimistic)' if args.pessimistic else ''} over {args.days:g} days",
    )
    want_trace = args.trace is not None
    with observe(trace=want_trace) as scope:
        if catalog is not None:
            # The CSV replay is a single in-process run that bypasses
            # run_batch, so capture its observability directly.
            sink = MemorySink() if want_trace else NULL_SINK
            # A single replay has no batch to route: auto takes the vector
            # scheduler, which itself degrades to per-event under --trace
            # or for non-vectorizable policies (results are identical).
            one_engine = "vector" if args.engine == "auto" else "event"
            start = time.perf_counter()
            observed = run_simulation_observed(
                spec, sink=sink, engine=one_engine, catalog=catalog
            )
            results = [observed.result]
            scope.add_run(
                RunTelemetry(
                    label=observed.result.label,
                    seed=spec.seed,
                    wall_s=time.perf_counter() - start,
                    events_processed=observed.fired_events,
                    metrics=observed.metrics.to_dict(),
                    trace_events=(
                        tuple(e.to_dict() for e in sink.events) if want_trace else None
                    ),
                    engine_kind=observed.engine_kind,
                    vector_checks=observed.vector_checks,
                )
            )
        else:
            results = run_many(
                spec, args.seeds, jobs=args.jobs,
                ledger=args.ledger, resume=args.resume,
                engine=args.engine,
            )
    for r in results:
        t.add_row(
            r.seed, r.normalized_cost_percent, r.unavailability_percent,
            r.downtime_s, r.forced_migrations,
            r.planned_migrations + r.reverse_migrations, r.spot_cost, r.on_demand_cost,
        )
    print(t.render())
    if len(results) > 1:
        agg = aggregate(results)
        print(
            f"\nmean over {agg.n_runs} seeds: "
            f"{agg.normalized_cost_percent:.1f}% of baseline "
            f"(+-{agg.normalized_cost_std:.1f}), "
            f"{agg.unavailability_percent:.4f}% unavailable"
        )
        meets = agg.unavailability_percent <= 0.01
        print(f"four-nines target: {'met' if meets else 'MISSED'}")
    if want_trace:
        n = scope.write_jsonl(args.trace)
        print(f"\ntrace: {n} event(s) written to {args.trace}")
    if args.metrics:
        print("\nrun metrics (merged over all runs):")
        print(scope.metrics_summary())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
