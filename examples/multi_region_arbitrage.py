#!/usr/bin/env python
"""Multi-region spot arbitrage for a fleet of nested VMs.

Hosts an 8-unit service fleet (e.g. eight small web frontends that can be
packed onto medium/large/xlarge servers) and compares four scopes:

1. single market (small, us-east-1a),
2. multi-market within us-east-1a,
3. greedy multi-region across us-east-1b + eu-west-1a,
4. the stability-aware multi-region extension (the paper's future work).

Shows the paper's Fig 8/9 story on one set of trace samples: each widening
of scope cuts cost; greedy region-chasing can cost availability, which the
stability-aware policy buys back.

Usage::

    python examples/multi_region_arbitrage.py [n_seeds]
"""

import sys

from repro import (
    MarketKey,
    ProactiveBidding,
    RunSpec,
    StrategySpec,
    aggregate,
    run_many,
)
from repro.analysis.tables import Table
from repro.units import days

PAIR = ("us-east-1b", "eu-west-1a")


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    seeds = [100 + i for i in range(n_seeds)]

    scopes = {
        "single market (small)": (
            StrategySpec.single(MarketKey("us-east-1b", "small")),
            ("us-east-1b",),
        ),
        "multi-market (us-east-1b)": (
            StrategySpec.multi_market("us-east-1b", service_units=8),
            ("us-east-1b",),
        ),
        "multi-region (greedy)": (
            StrategySpec.multi_region(PAIR, service_units=8),
            PAIR,
        ),
        "multi-region (stability-aware)": (
            StrategySpec.stability(PAIR, service_units=8, stability_weight=4.0),
            PAIR,
        ),
    }

    t = Table(
        headers=("scope", "norm cost %", "unavail %", "forced/hr", "planned+rev/hr"),
        title=f"8-unit fleet, {n_seeds} trace samples x 30 days",
    )
    for label, (strategy, regions) in scopes.items():
        spec = RunSpec(
            strategy=strategy,
            bidding=ProactiveBidding(),
            horizon_s=days(30),
            regions=regions,
            label=label,
        )
        agg = aggregate(run_many(spec, seeds), label=label)
        t.add_row(
            label,
            agg.normalized_cost_percent,
            agg.unavailability_percent,
            agg.forced_per_hour,
            agg.planned_reverse_per_hour,
        )
    print(t.render())
    print()
    print("Reading: wider market scope -> lower normalized cost (Fig 8a/9a);")
    print("the stability-aware variant trades a little of that cost for fewer")
    print("forced migrations in the volatile region (the Fig 9c fix).")


if __name__ == "__main__":
    main()
