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
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.tables import Table
from repro.core import registry
from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.results import aggregate
from repro.core.simulation import RunSpec, run_many
from repro.obs import observe
from repro.runtime import ExecutionOptions, StrategySpec, add_execution_options
from repro.runtime.options import print_observation
from repro.errors import ConfigurationError, TraceFormatError, cli_main
from repro.traces.calibration import REGIONS, SIZES
from repro.traces.catalog import MarketKey
from repro.traces.ingest import ingest_archive, load_segment_catalog
from repro.units import SECONDS_PER_DAY, days
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
    p.add_argument("--csv", type=str, default=None,
                   help="replay an AWS-format spot history instead of "
                   "generating traces: ingested to a temporary segment "
                   "directory, then replayed as --segments (single-market "
                   "strategies only)")
    p.add_argument("--segments", type=str, default=None, metavar="DIR",
                   help="replay an ingested mmap segment directory "
                   "(see repro.traces.ingest) instead of generating traces, "
                   "over its whole horizon (single-market strategies only)")
    p.add_argument("--stability-weight", type=float, default=2.0)
    p.add_argument("--band", type=float, default=0.15,
                   help="index-tracking: tracking-error band above the index")
    p.add_argument("--risk-cap", type=float, default=0.05,
                   help="portfolio-bid: max predicted revocation risk")
    p.add_argument("--fast", action="store_true",
                   help="smoke run: horizon capped at 10 days, first two seeds")
    add_execution_options(p)
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


def _replay(args, spec: RunSpec, directory: str, name: str) -> RunSpec:
    """``spec`` replaying the ingested archive in ``directory`` over its
    whole horizon; ``name`` is how the user named the archive."""
    catalog = load_segment_catalog(directory)
    key = MarketKey(args.region[0], args.size)
    if key not in catalog:
        raise TraceFormatError(
            f"market {key} not in {name}; "
            f"available: {[str(k) for k in catalog.markets()]}"
        )
    return spec.with_(
        traces=str(Path(directory).resolve()), sizes=(args.size,), horizon_s=catalog.horizon
    )


@cli_main
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_strategies:
        print(_render_strategy_list())
        return 0
    execution = ExecutionOptions.from_args(args)
    if args.csv is not None and args.segments is not None:
        raise ConfigurationError("--csv and --segments are mutually exclusive")
    if args.csv is not None and execution.ledger is not None:
        # The CSV is ingested into a fresh temporary directory, so the
        # journal's run identity would differ on every invocation.
        raise ConfigurationError(
            "--ledger cannot resume a --csv replay: ingest the archive once "
            "with python -m repro.traces.ingest and replay it with --segments"
        )
    flag = "--csv" if args.csv is not None else "--segments"
    if (args.csv, args.segments) != (None, None) and not _single_market_kind(args.strategy):
        raise ConfigurationError(f"{flag} supports single-market strategies only")
    if args.fast:
        args.days = min(args.days, 10.0)
        args.seeds = args.seeds[:2]
    bidding = (
        ProactiveBidding(k=args.k) if args.bidding == "proactive" else ReactiveBidding()
    )
    strategy, regions = _make_strategy(args)
    spec = RunSpec(
        strategy=strategy,
        bidding=bidding,
        mechanism=MECHANISMS[args.mechanism],
        params=PESSIMISTIC_PARAMS if args.pessimistic else TYPICAL_PARAMS,
        horizon_s=days(args.days),
        regions=regions,
        sizes=tuple(SIZES),
        label=f"{args.bidding}/{args.strategy}",
    )
    with ExitStack() as stack:
        if args.segments is not None:
            spec = _replay(args, spec, args.segments, f"segment directory {args.segments}")
        elif args.csv is not None:
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-simulate-"))
            ingest_archive(args.csv, tmp)
            spec = _replay(args, spec, tmp, args.csv)
        with observe(trace=args.trace is not None) as scope:
            results = run_many(spec, args.seeds, execution=execution)
    t = Table(
        headers=("seed", "norm cost %", "unavail %", "downtime (s)",
                 "forced", "planned+rev", "spot $", "od $"),
        title=f"{args.strategy} / {args.bidding} / {args.mechanism}"
        f"{' (pessimistic)' if args.pessimistic else ''} "
        f"over {spec.horizon_s / SECONDS_PER_DAY:g} days",
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
    print_observation(scope, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
