"""Figure 1: spot prices of a small and a large server over a month.

The paper's Figure 1 shows month-long us-east price traces: long stretches
of a few cents punctuated by spikes — up to ~$0.5 on the small market and
$3+/hr on the large one — and notes the markets are "not strongly
correlated". We regenerate the same view from the calibrated process and
check those three properties.
"""

from __future__ import annotations

from repro.analysis.figures import sparkline
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig
from repro.runtime import shared_catalog
from repro.traces.calibration import on_demand_price
from repro.traces.catalog import MarketKey
from repro.traces.statistics import summarize_trace, trace_correlation

EXPERIMENT_ID = "fig1"
TITLE = "Spot prices over a month (us-east-1a small & large)"


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    seed = cfg.effective_seeds()[0]
    cat = shared_catalog(seed=seed, horizon=cfg.effective_horizon(), regions=("us-east-1a",))
    small = cat.trace(MarketKey("us-east-1a", "small"))
    large = cat.trace(MarketKey("us-east-1a", "large"))

    grid_s, ps = small.regular_grid(1800.0)
    _, pl = large.regular_grid(1800.0)
    report.add_artifact(
        "small  " + sparkline(list(ps)) + f"  (max ${small.max_price():.3f}/hr)"
    )
    report.add_artifact(
        "large  " + sparkline(list(pl)) + f"  (max ${large.max_price():.3f}/hr)"
    )

    t = Table(headers=("market", "mean $/hr", "max $/hr", "on-demand $/hr", "% time > od"))
    for trace, size in ((small, "small"), (large, "large")):
        od = on_demand_price("us-east-1a", size)
        s = summarize_trace(trace, od)
        t.add_row(size, s.mean_price, s.max_price, od, s.frac_above_od * 100)
    report.add_artifact(t.render())

    od_small = on_demand_price("us-east-1a", "small")
    od_large = on_demand_price("us-east-1a", "large")
    corr = trace_correlation(small, large)

    report.compare(
        "large-market peak price", large.max_price(), paper=3.0, unit="$/hr",
        expectation="spikes to ~$3/hr on a $0.24 market", holds=large.max_price() >= 1.0,
    )
    report.compare(
        "small mean price / on-demand", small.mean_price() / od_small * 100, unit="%",
        expectation="usually cheap: calm price well below on-demand",
        holds=small.mean_price() < 0.5 * od_small,
    )
    report.compare(
        "small-large correlation", corr, unit="",
        expectation="markets within a region not strongly correlated",
        holds=corr < 0.6,
    )
    report.compare(
        "large mean price / on-demand", large.mean_price() / od_large * 100, unit="%",
        expectation="calm price well below on-demand",
        holds=large.mean_price() < 0.5 * od_large,
    )
    return report
