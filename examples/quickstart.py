#!/usr/bin/env python
"""Quickstart: host an always-on service on the spot market.

Runs the paper's headline configuration — a small us-east service under
the proactive bidding policy with checkpoint + lazy-restore + live
migration — against one month of simulated spot prices, and prints the
cost and availability next to the all-on-demand baseline.

Usage::

    python examples/quickstart.py [seed]
"""

import sys

from repro import (
    MarketKey,
    Mechanism,
    ProactiveBidding,
    RunSpec,
    StrategySpec,
    run_simulation,
)
from repro.units import days, fmt_duration, fmt_usd


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    key = MarketKey("us-east-1a", "small")

    base = dict(
        horizon_s=days(30),
        regions=("us-east-1a",),
        sizes=("small",),
        seed=seed,
    )

    ours = run_simulation(
        RunSpec(
            strategy=StrategySpec.single(key),
            bidding=ProactiveBidding(k=4.0),
            mechanism=Mechanism.CKPT_LR_LIVE,
            label="spot-scheduler",
            **base,
        )
    )
    baseline = run_simulation(
        RunSpec(
            strategy=StrategySpec.on_demand(key),
            label="on-demand-only",
            **base,
        )
    )

    print(f"30 days of hosting one '{key}' service (seed {seed})")
    print()
    print(f"{'':28s}{'on-demand only':>16s}{'spot scheduler':>16s}")
    print(f"{'total cost':28s}{fmt_usd(baseline.total_cost):>16s}{fmt_usd(ours.total_cost):>16s}")
    print(
        f"{'normalized cost':28s}{baseline.normalized_cost_percent:>15.1f}%"
        f"{ours.normalized_cost_percent:>15.1f}%"
    )
    print(
        f"{'unavailability':28s}{baseline.unavailability_percent:>15.4f}%"
        f"{ours.unavailability_percent:>15.4f}%"
    )
    print(
        f"{'downtime':28s}{fmt_duration(baseline.downtime_s):>16s}"
        f"{fmt_duration(ours.downtime_s):>16s}"
    )
    print(f"{'forced migrations':28s}{'-':>16s}{ours.forced_migrations:>16d}")
    print(f"{'planned/reverse migrations':28s}{'-':>16s}"
          f"{ours.planned_migrations + ours.reverse_migrations:>16d}")
    print()
    factor = baseline.total_cost / max(ours.total_cost, 1e-9)
    print(f"The scheduler hosted the service at 1/{factor:.1f} of the on-demand cost")
    nines = "meets" if ours.unavailability_percent <= 0.01 else "misses"
    print(f"and {nines} the four-nines availability target "
          f"({ours.unavailability_percent:.4f} % unavailable).")


if __name__ == "__main__":
    main()
