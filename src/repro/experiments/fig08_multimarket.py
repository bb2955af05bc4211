"""Figure 8: multi-market bidding within one region.

Three panels, for each of the four AZs:

(a) normalized cost: multi-market below the average of the four
    single-market schemes (paper: 8-52 % lower);
(b) the average pairwise price correlation between markets of the region
    is low (which is why (a) works);
(c) unavailability: multi-market at or below the single-market average.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.figures import bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig, simulate
from repro.runtime import StrategySpec, shared_catalog
from repro.traces.calibration import REGIONS, SIZES
from repro.traces.catalog import MarketKey
from repro.traces.statistics import mean_pairwise_correlation

EXPERIMENT_ID = "fig8"
TITLE = "Multi-market versus single-market bidding within a region"


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    per_region: dict[str, dict[str, float]] = {}
    for region in REGIONS:
        singles = [
            simulate(
                cfg,
                StrategySpec.single(MarketKey(region, size)),
                regions=(region,),
                label=f"single/{region}/{size}",
            )
            for size in SIZES
        ]
        multi = simulate(
            cfg,
            StrategySpec.multi_market(region),
            regions=(region,),
            label=f"multi/{region}",
        )
        corrs = []
        for seed in cfg.effective_seeds():
            cat = shared_catalog(seed=seed, horizon=cfg.effective_horizon(), regions=(region,))
            corrs.append(
                mean_pairwise_correlation([cat.trace(k) for k in cat.markets_in_region(region)])
            )
        per_region[region] = {
            "single_cost": float(np.mean([a.normalized_cost_percent for a in singles])),
            "multi_cost": multi.normalized_cost_percent,
            "single_unav": float(np.mean([a.unavailability_percent for a in singles])),
            "multi_unav": multi.unavailability_percent,
            "corr": float(np.mean(corrs)),
        }

    t = Table(
        headers=(
            "region", "avg single cost %", "multi cost %", "cost reduction %",
            "avg corr", "avg single unavail %", "multi unavail %",
        ),
        title="Fig 8(a-c) series",
    )
    for region, d in per_region.items():
        red = (d["single_cost"] - d["multi_cost"]) / d["single_cost"] * 100
        t.add_row(
            region, d["single_cost"], d["multi_cost"], red,
            d["corr"], d["single_unav"], d["multi_unav"],
        )
    report.add_artifact(t.render())
    report.add_artifact(
        bar_chart(
            {r: d["corr"] for r, d in per_region.items()},
            title="Fig 8(b): mean intra-region price correlation",
        )
    )

    reductions = {
        r: (d["single_cost"] - d["multi_cost"]) / d["single_cost"] * 100
        for r, d in per_region.items()
    }
    report.compare(
        "cost reduction low end", min(reductions.values()), paper=8.0, unit="%",
        expectation="multi-market cheaper in every region",
        holds=min(reductions.values()) > 0,
    )
    report.compare(
        "cost reduction high end", max(reductions.values()), paper=52.0, unit="%",
        expectation="8-52 % below single-market average",
        holds=max(reductions.values()) >= 8.0,
    )
    report.compare(
        "intra-region correlation (max)",
        max(d["corr"] for d in per_region.values()),
        expectation="low correlation between markets of a region",
        holds=max(d["corr"] for d in per_region.values()) < 0.7,
    )
    worse = [
        r for r, d in per_region.items() if d["multi_unav"] > 1.5 * d["single_unav"] + 1e-6
    ]
    report.compare(
        "regions where multi-market clearly increases unavailability",
        float(len(worse)),
        expectation="multi-market does not increase unavailability (Fig 8c)",
        holds=len(worse) == 0,
    )
    return report
