"""Ablation: adaptive (history-driven) bidding versus the fixed 4x cap.

The paper bids the cap because it minimizes revocations; the only reason to
bid *less* is exposure control (a bounded worst-case hourly price if the
provider ever billed at bid, and organizational risk limits). The adaptive
policy (:class:`~repro.core.adaptive.AdaptiveBidding`) derives its bid from
a trailing-window survival analysis: in a calm market it sits just above
on-demand, in a spiky one it climbs to clear the observed spikes. This
experiment checks the derived bids match the fixed policy's availability in
both kinds of market.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.cloud.spot_market import SpotMarket
from repro.core.adaptive import AdaptiveBidding
from repro.core.bidding import ProactiveBidding
from repro.experiments.common import ExperimentConfig, simulate
from repro.runtime import StrategySpec, shared_catalog
from repro.traces.catalog import MarketKey

EXPERIMENT_ID = "abl-adaptive"
TITLE = "Ablation: adaptive bidding versus the fixed 4x cap"

VOLATILE = MarketKey("us-east-1b", "small")
CALM = MarketKey("eu-west-1a", "small")


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    rows = {}
    for key, tag in ((VOLATILE, "volatile"), (CALM, "calm")):
        for bidding, name in (
            (ProactiveBidding(), "fixed k=4"),
            (AdaptiveBidding(max_revocations_per_month=2.0), "adaptive"),
        ):
            rows[(tag, name)] = simulate(
                cfg, StrategySpec.single(key),
                bidding=bidding, regions=(key.region,), sizes=("small",),
                label=f"{tag}/{name}",
            )

    # What does the adaptive policy actually bid at the end of each sample?
    bids = {}
    for key, tag in ((VOLATILE, "volatile"), (CALM, "calm")):
        vals = []
        for seed in cfg.effective_seeds():
            cat = shared_catalog(seed=seed, horizon=cfg.effective_horizon(),
                                 regions=(key.region,), sizes=("small",))
            market = SpotMarket(
                name=str(key), trace=cat.trace(key),
                on_demand_price=cat.on_demand_price(key),
            )
            policy = AdaptiveBidding(max_revocations_per_month=2.0)
            vals.append(
                policy.bid_price(market, t=cfg.effective_horizon() * 0.9)
                / cat.on_demand_price(key)
            )
        bids[tag] = float(np.mean(vals))

    t = Table(
        headers=("market", "policy", "norm cost %", "unavail %",
                 "forced/hr", "end-of-run bid (x od)"),
        title="adaptive vs fixed bidding",
    )
    for tag in ("volatile", "calm"):
        for name in ("fixed k=4", "adaptive"):
            a = rows[(tag, name)]
            t.add_row(tag, name, a.normalized_cost_percent,
                      a.unavailability_percent, a.forced_per_hour,
                      4.0 if name == "fixed k=4" else bids[tag])
    report.add_artifact(t.render())

    report.compare(
        "adaptive bids lower in the calm market", bids["calm"], unit="x od",
        expectation="calm history justifies a bid near on-demand",
        holds=bids["calm"] < bids["volatile"] + 1e-9 and bids["calm"] < 3.0,
    )
    report.compare(
        "adaptive availability tracks fixed (volatile market)",
        rows[("volatile", "adaptive")].unavailability_percent
        / max(rows[("volatile", "fixed k=4")].unavailability_percent, 1e-9),
        expectation="derived bids protect as well as the cap",
        holds=rows[("volatile", "adaptive")].unavailability_percent
        < 3.0 * rows[("volatile", "fixed k=4")].unavailability_percent + 1e-4,
    )
    report.compare(
        "costs essentially identical",
        abs(rows[("volatile", "adaptive")].normalized_cost_percent
            - rows[("volatile", "fixed k=4")].normalized_cost_percent),
        unit="% pts",
        expectation="spot bills the price, not the bid",
        holds=abs(rows[("volatile", "adaptive")].normalized_cost_percent
                  - rows[("volatile", "fixed k=4")].normalized_cost_percent) < 3.0,
    )
    return report
