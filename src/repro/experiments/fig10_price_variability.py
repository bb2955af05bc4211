"""Figure 10: price standard deviation per region and size.

The paper uses this figure to explain Fig 9(c): us-east markets are cheaper
*and* more variable than us-west or eu-west, so a greedy multi-region
bidder migrating toward cheap markets also migrates toward volatile ones.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.figures import bar_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig
from repro.runtime import shared_catalog
from repro.traces.calibration import REGIONS, SIZES
from repro.traces.catalog import MarketKey
from repro.traces.statistics import price_std

EXPERIMENT_ID = "fig10"
TITLE = "Spot-price standard deviation per region and size"


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    stds: dict[tuple[str, str], float] = {}
    for seed in cfg.effective_seeds():
        cat = shared_catalog(seed=seed, horizon=cfg.effective_horizon())
        for region in REGIONS:
            for size in SIZES:
                key = (region, size)
                stds.setdefault(key, 0.0)
                stds[key] += price_std(cat.trace(MarketKey(region, size)))
    n = len(cfg.effective_seeds())
    stds = {k: v / n for k, v in stds.items()}

    t = Table(headers=("region",) + SIZES, title="std dev of spot price ($/hr)")
    for region in REGIONS:
        t.add_row(region, *[stds[(region, s)] for s in SIZES])
    report.add_artifact(t.render())
    report.add_artifact(
        bar_chart(
            {f"{r}/xlarge": stds[(r, "xlarge")] for r in REGIONS},
            title="xlarge std dev by region",
            unit=" $/hr",
        )
    )

    east_mean = float(np.mean([stds[(r, s)] for r in REGIONS if "us-east" in r for s in SIZES]))
    west_mean = float(np.mean([stds[("us-west-1a", s)] for s in SIZES]))
    eu_mean = float(np.mean([stds[("eu-west-1a", s)] for s in SIZES]))
    report.compare(
        "us-east std / us-west std", east_mean / max(west_mean, 1e-9),
        expectation="us-east more variable than us-west",
        holds=east_mean > west_mean,
    )
    report.compare(
        "us-west std / eu-west std", west_mean / max(eu_mean, 1e-9),
        expectation="us-west more variable than eu-west",
        holds=west_mean > eu_mean,
    )
    report.compare(
        "std grows with instance size (us-east-1a)",
        stds[("us-east-1a", "xlarge")] / max(stds[("us-east-1a", "small")], 1e-9),
        expectation="absolute variability scales with price level",
        holds=stds[("us-east-1a", "xlarge")] > stds[("us-east-1a", "small")],
    )
    return report
