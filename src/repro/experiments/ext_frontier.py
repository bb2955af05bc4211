"""Extension: the cost-availability frontier of hosting policies.

Places every hosting policy in this library on one cost/unavailability
chart — the two baselines the paper compares (on-demand-only, pure spot),
its reactive and proactive schedulers, the Remus hot-standby extension
(:mod:`repro.core.replication`), and the three related-work families from
:mod:`repro.core.policies`: index tracking (Shastri & Irwin), no fault
tolerance (Alourani & Kshemkalyani), and the LP portfolio bid. The
frontier makes the paper's argument visually: migration turns spot
servers from cheap-but-down into cheap-and-up, and a standing replica
buys another order of magnitude of availability for roughly one more
spot price.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.figures import line_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.bidding import ReactiveBidding
from repro.experiments.common import ExperimentConfig, simulate
from repro.runtime import StrategySpec
from repro.traces.catalog import MarketKey
from repro.vm.mechanisms import Mechanism

EXPERIMENT_ID = "ext-frontier"
TITLE = "Extension: cost-availability frontier of hosting policies"

KEY = MarketKey("us-east-1a", "small")
PAIR_REGIONS = ("us-east-1a", "us-east-1b")


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    points: dict[str, tuple[float, float]] = {}

    od = simulate(cfg, StrategySpec.on_demand(KEY),
                  regions=("us-east-1a",), sizes=("small",), label="on-demand")
    points["on-demand only"] = (od.normalized_cost_percent, od.unavailability_percent)

    pure = simulate(cfg, StrategySpec.pure_spot(KEY), bidding=ReactiveBidding(),
                    regions=("us-east-1a",), sizes=("small",), label="pure-spot")
    points["pure spot"] = (pure.normalized_cost_percent, pure.unavailability_percent)

    rea = simulate(cfg, StrategySpec.single(KEY), bidding=ReactiveBidding(),
                   mechanism=Mechanism.CKPT_LR,
                   regions=("us-east-1a",), sizes=("small",), label="reactive")
    points["reactive + CKPT LR"] = (rea.normalized_cost_percent, rea.unavailability_percent)

    pro = simulate(cfg, StrategySpec.single(KEY),
                   mechanism=Mechanism.CKPT_LR_LIVE,
                   regions=("us-east-1a",), sizes=("small",), label="proactive")
    points["proactive + CKPT LR + Live"] = (
        pro.normalized_cost_percent, pro.unavailability_percent
    )

    idx = simulate(cfg, StrategySpec.index_tracking(PAIR_REGIONS),
                   regions=PAIR_REGIONS, sizes=("small", "medium"),
                   label="index-tracking")
    points["index tracking"] = (idx.normalized_cost_percent, idx.unavailability_percent)

    noft = simulate(cfg, StrategySpec.no_fault_tolerance(KEY),
                    bidding=ReactiveBidding(),
                    regions=("us-east-1a",), sizes=("small",), label="no-ft")
    points["no fault tolerance"] = (
        noft.normalized_cost_percent, noft.unavailability_percent
    )

    lp = simulate(cfg, StrategySpec.portfolio_bid(PAIR_REGIONS),
                  regions=PAIR_REGIONS, sizes=("small", "medium"),
                  label="portfolio-bid")
    points["LP portfolio bid"] = (lp.normalized_cost_percent, lp.unavailability_percent)

    remus = simulate(cfg, StrategySpec.of("remus-pair", PAIR_REGIONS),
                     regions=PAIR_REGIONS, label="remus-pair")
    points["Remus dual-spot pair"] = (
        remus.normalized_cost_percent, remus.unavailability_percent
    )

    t = Table(headers=("policy", "norm cost %", "unavail %"),
              title="cost-availability frontier (small service, us-east)")
    for label, (c, u) in points.items():
        t.add_row(label, c, u)
    report.add_artifact(t.render())
    report.add_artifact(
        line_chart(
            {label: [(c, np.log10(max(u, 1e-6)))] for label, (c, u) in points.items()},
            title="frontier: x = normalized cost %, y = log10(unavailability %)",
            x_label="cost %", y_label="log10 unavail",
        )
    )

    remus_cost, remus_unav = points["Remus dual-spot pair"]
    pro_cost, pro_unav = points["proactive + CKPT LR + Live"]
    report.compare(
        "Remus pair still well below on-demand cost", remus_cost, unit="%",
        expectation="two spot prices < one on-demand price",
        holds=remus_cost < 90.0,
    )
    report.compare(
        "Remus pair beats proactive availability", remus_unav, unit="%",
        expectation="hot standby cuts downtime below the migration path "
        "(small-sample tolerance applied)",
        holds=remus_unav < pro_unav + 0.002,
    )
    report.compare(
        "Remus standing cost roughly doubles the spot bill",
        remus_cost / max(pro_cost, 1e-9),
        expectation="the price of the second replica",
        holds=1.3 < remus_cost / max(pro_cost, 1e-9) < 3.5,
    )
    # No fault tolerance shares pure spot's dark periods (no on-demand
    # fallback) plus a recompute penalty, so both sit outside the
    # availability bar every fallback-capable policy must clear.
    spot_only = ("pure spot", "no fault tolerance")
    fallback_unav = max(
        u for label, (c, u) in points.items() if label not in spot_only
    )
    report.compare(
        "every fallback-capable policy meets 0.1 %",
        fallback_unav,
        unit="%",
        expectation="only the spot-only points (pure spot, no-FT) miss the bar",
        holds=fallback_unav < 0.1 and points["pure spot"][1] > 0.5,
    )
    new_costs = {
        label: points[label][0]
        for label in ("index tracking", "no fault tolerance", "LP portfolio bid")
    }
    report.compare(
        "related-work policies stay below on-demand cost",
        max(new_costs.values()),
        unit="%",
        expectation="index tracking, no-FT, and the LP bid all ride the "
        "spot discount",
        holds=max(new_costs.values()) < 100.0,
    )
    return report
