"""Figure 9: multi-region versus single-region bidding, over region pairs.

For all six AZ pairs, comparing the multi-region strategy (all markets of
both AZs) against the average of the two single-region (multi-market)
strategies. Paper claims:

(a) multi-region reaches 12-17 % of the baseline (lowest on-demand cost of
    the pair), 5-28 % below the single-region average;
(b) cross-region price correlation is low;
(c) unavailability can *increase* for pairs involving the cheap-but-
    volatile us-east AZs.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig, simulate
from repro.runtime import StrategySpec, shared_catalog
from repro.traces.calibration import REGIONS, SIZES
from repro.traces.catalog import MarketKey
from repro.traces.statistics import trace_correlation

EXPERIMENT_ID = "fig9"
TITLE = "Multi-region versus single-region bidding (all AZ pairs)"

PAIRS = tuple(itertools.combinations(REGIONS, 2))


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    single: dict[str, object] = {}
    for region in REGIONS:
        single[region] = simulate(
            cfg,
            StrategySpec.multi_market(region),
            regions=(region,),
            label=f"single-region/{region}",
        )

    rows = []
    for ra, rb in PAIRS:
        multi = simulate(
            cfg,
            StrategySpec.multi_region((ra, rb)),
            regions=(ra, rb),
            label=f"multi-region/{ra}+{rb}",
        )
        corrs = []
        for seed in cfg.effective_seeds():
            cat = shared_catalog(seed=seed, horizon=cfg.effective_horizon(), regions=(ra, rb))
            corrs.append(
                float(np.mean([
                    trace_correlation(
                        cat.trace(MarketKey(ra, s)), cat.trace(MarketKey(rb, s))
                    )
                    for s in SIZES
                ]))
            )
        sa, sb = single[ra], single[rb]
        avg_cost = 0.5 * (sa.normalized_cost_percent + sb.normalized_cost_percent)
        avg_unav = 0.5 * (sa.unavailability_percent + sb.unavailability_percent)
        rows.append(
            dict(
                pair=f"{ra}+{rb}",
                single_cost=avg_cost,
                multi_cost=multi.normalized_cost_percent,
                corr=float(np.mean(corrs)),
                single_unav=avg_unav,
                multi_unav=multi.unavailability_percent,
                volatile="us-east" in ra or "us-east" in rb,
            )
        )

    t = Table(
        headers=(
            "pair", "avg single-region cost %", "multi-region cost %",
            "cross-corr", "avg single unavail %", "multi unavail %",
        ),
        title="Fig 9(a-c) series",
    )
    for r in rows:
        t.add_row(
            r["pair"], r["single_cost"], r["multi_cost"], r["corr"],
            r["single_unav"], r["multi_unav"],
        )
    report.add_artifact(t.render())

    costs = [r["multi_cost"] for r in rows]
    report.compare(
        "multi-region cost low end", min(costs), paper=12.0, unit="%",
        expectation="12-17 % of baseline (we allow a wider band)",
        holds=min(costs) <= 22.0,
    )
    report.compare(
        "multi-region cost high end", max(costs), paper=17.0, unit="%",
        expectation="well below the on-demand baseline",
        holds=max(costs) <= 33.0,
    )
    reductions = [
        (r["single_cost"] - r["multi_cost"]) / r["single_cost"] * 100 for r in rows
    ]
    report.compare(
        "cost reduction vs single-region (mean over pairs)",
        float(np.mean(reductions)),
        paper=16.5,
        unit="%",
        expectation="multi-region cheaper on average (paper: 5-28 %)",
        holds=float(np.mean(reductions)) > 0,
    )
    report.compare(
        "cross-region correlation (max over pairs)",
        max(r["corr"] for r in rows),
        expectation="low cross-region correlation",
        holds=max(r["corr"] for r in rows) < 0.5,
    )
    # Only count meaningful increases (>10 % relative) — sub-noise wiggles
    # should not flip the Fig 9c narrative either way.
    increases = [r for r in rows if r["multi_unav"] > 1.1 * r["single_unav"]]
    report.compare(
        "pairs where unavailability meaningfully increases",
        float(len(increases)),
        expectation="unavailability can increase in some (volatile) pairs, "
        "but not across the board",
        holds=len(increases) < len(rows),
    )
    report.note(
        "pairs with increased unavailability: "
        + (", ".join(r["pair"] for r in increases) or "none")
    )
    return report
