"""``repro-fleet`` — simulate a multi-tenant fleet on the shared spot market.

Examples::

    repro-fleet                                   # 100 services, 20 markets
    repro-fleet --services 500 --jobs 4
    repro-fleet --churn-per-week 8 --days 60
    repro-fleet --spare-capacity 6 --spare-quota 2
    repro-fleet --region us-east-1a us-east-1b --size small medium
    repro-fleet --report /tmp/fleet.json --verify
    repro-fleet --fast                            # CI smoke: small and quick

The fleet is synthesized deterministically from ``--seed`` (see
:func:`repro.fleet.spec.synthesize_fleet`); the report is byte-identical
at any ``--jobs`` value and across ``--engine auto``/``event``. See
``docs/FLEET.md`` for the model and the metrics glossary.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.analysis.tables import Table
from repro.fleet.runner import run_fleet
from repro.fleet.spec import synthesize_fleet
from repro.errors import ConfigurationError, cli_main
from repro.obs import observe
from repro.runtime import ExecutionOptions, add_execution_options, batches_summary
from repro.runtime.options import print_observation
from repro.traces.calibration import ALL_REGIONS, SIZES
from repro.units import days

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Host a fleet of services on one shared simulated spot market.",
    )
    p.add_argument("--services", type=int, default=100, metavar="N",
                   help="initial cohort size (active for the whole horizon)")
    p.add_argument("--seed", type=int, default=0,
                   help="fleet synthesis + market seed (one seed, one world)")
    p.add_argument("--days", type=float, default=30.0, help="fleet horizon")
    p.add_argument("--region", nargs="+", default=list(ALL_REGIONS),
                   choices=ALL_REGIONS, metavar="AZ",
                   help="availability zone(s) the fleet bids in")
    p.add_argument("--size", nargs="+", default=list(SIZES), choices=SIZES,
                   help="instance size(s) the fleet bids on")
    p.add_argument("--churn-per-week", type=float, default=0.0, metavar="R",
                   help="expected mid-horizon service arrivals per week "
                   "(each later departs; 0 = static fleet)")
    p.add_argument("--spare-capacity", type=int, default=None, metavar="N",
                   help="shared warm-spare pool size "
                   "(default: 10%% of the initial cohort, at least 2)")
    p.add_argument("--spare-quota", type=int, default=1, metavar="N",
                   help="base per-service cap on concurrently held spares")
    p.add_argument("--handover-s", type=float, default=360.0, metavar="S",
                   help="seconds one forced migration occupies a spare")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the full FleetReport as sorted-key JSON "
                   "to PATH (the byte-identity artifact)")
    p.add_argument("--verify", action="store_true",
                   help="run the fleet invariant oracles on the finished "
                   "report (spare-pool conservation, proration accounting)")
    p.add_argument("--top", type=int, default=5, metavar="N",
                   help="list the N services with the most downtime (0 = none)")
    p.add_argument("--fast", action="store_true",
                   help="smoke run: at most 16 services over 7 days")
    add_execution_options(p)
    return p


@cli_main
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    execution = ExecutionOptions.from_args(args)
    if args.services < 1:
        raise ConfigurationError("--services must be >= 1")
    if args.fast:
        args.services = min(args.services, 16)
        args.days = min(args.days, 7.0)
    spec = synthesize_fleet(
        n_services=args.services,
        seed=args.seed,
        horizon_s=days(args.days),
        regions=tuple(args.region),
        sizes=tuple(args.size),
        churn_per_week=args.churn_per_week,
        spare_capacity=args.spare_capacity,
        default_spare_quota=args.spare_quota,
        handover_window_s=args.handover_s,
    )
    with observe(trace=args.trace is not None) as scope:
        report = run_fleet(spec, execution=execution, verify=args.verify)
    print(report.summary())
    # Execution telemetry is a footer, not part of the report: the report
    # itself stays byte-identical across engines and worker counts.
    if scope.batches:
        print(f"[runtime: {batches_summary(scope.batches)}]")
    if args.top > 0:
        worst = sorted(
            report.services, key=lambda s: (-s.downtime_s, s.name)
        )[: args.top]
        t = Table(
            headers=("service", "strategy", "norm cost %", "unavail %",
                     "downtime (s)", "forced", "spare hits/claims", "target"),
            title=f"top {len(worst)} services by downtime",
        )
        for s in worst:
            t.add_row(
                s.name, s.strategy_kind, s.normalized_cost_percent,
                s.unavailability_percent, s.downtime_s, s.forced_migrations,
                f"{s.spare_hits}/{s.spare_claims}",
                "met" if s.target_met else "MISSED",
            )
        print()
        print(t.render())
    if args.report is not None:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json(indent=2) + "\n")
        print(f"\nreport: written to {path}")
    if args.verify:
        print("fleet invariant oracles green")
    print_observation(scope, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
