#!/usr/bin/env python
"""Replay archived AWS spot-price history through the scheduler.

The simulations ship with a calibrated synthetic price process, but any
market's real history — in the CSV shape emitted by
``aws ec2 describe-spot-price-history`` — can be loaded and replayed
directly. This example:

1. writes a demo CSV (a synthetic trace exported to the AWS format — swap
   in your own archive file);
2. loads it with :func:`repro.load_aws_csv`;
3. wraps it in a :class:`~repro.TraceCatalog` and runs the proactive and
   reactive policies on exactly those prices.

Usage::

    python examples/replay_real_traces.py [path/to/history.csv]
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    MarketKey,
    ProactiveBidding,
    ReactiveBidding,
    RunSpec,
    StrategySpec,
    TraceCatalog,
    calibration_for,
    generate_trace,
    load_aws_csv,
    run_simulation,
    save_aws_csv,
)
from repro.analysis.tables import Table
from repro.units import days


def demo_csv() -> Path:
    """Create a demo history file (stand-in for a real archive)."""
    cal = calibration_for("us-east-1a", "small")
    trace = generate_trace(cal, days(30), seed=2015)
    path = Path(tempfile.mkdtemp()) / "m1.small-us-east-1a.csv"
    save_aws_csv(trace, path, instance_type="m1.small", availability_zone="us-east-1a")
    return path


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else demo_csv()
    print(f"loading spot history from {path}")

    trace = load_aws_csv(path, instance_type="m1.small", availability_zone="us-east-1a")
    key = MarketKey("us-east-1a", "small")
    on_demand = 0.06  # the matching on-demand price for this market
    catalog = TraceCatalog({key: trace}, {key: on_demand}, trace.horizon)
    print(f"loaded {len(trace)} price changes covering "
          f"{trace.duration / 86400:.1f} days; mean ${trace.mean_price():.4f}/hr")

    t = Table(headers=("policy", "norm cost %", "unavail %", "forced", "planned+rev"))
    for bidding in (ReactiveBidding(), ProactiveBidding()):
        r = run_simulation(
            RunSpec(
                strategy=StrategySpec.single(key),
                bidding=bidding,
                horizon_s=trace.horizon,
                label=bidding.name,
            ),
            catalog=catalog,
        )
        t.add_row(
            bidding.name,
            r.normalized_cost_percent,
            r.unavailability_percent,
            r.forced_migrations,
            r.planned_migrations + r.reverse_migrations,
        )
    print(t.render())


if __name__ == "__main__":
    main()
