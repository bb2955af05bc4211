"""Extension: sensitivity of the headline results to trace calibration.

A reproduction on synthetic traces must show its conclusions are not
artifacts of the chosen calibration. This experiment re-runs the core
proactive-vs-reactive comparison with the excursion intensity halved and
doubled, and with the calm price level shifted down and up, and checks the
paper's *qualitative* claims survive every variant:

* proactive unavailability stays well below reactive's;
* proactive stays at or below reactive's cost;
* the absolute cost level tracks the calm price (as it must), while the
  proactive/reactive *ordering* does not move.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.results import aggregate
from repro.core.simulation import RunSpec
from repro.experiments.common import ExperimentConfig
from repro.runtime import StrategySpec
from repro.traces.calibration import calibration_for
from repro.traces.catalog import MarketKey
from repro.vm.mechanisms import Mechanism

EXPERIMENT_ID = "ext-sensitivity"
TITLE = "Extension: sensitivity of headline results to trace calibration"

KEY = MarketKey("us-east-1a", "small")


def _variant(name: str, rate_mult: float, calm_mult: float):
    cal = calibration_for("us-east-1a", "small")
    cal = replace(
        cal,
        calm_base_frac=min(0.45, cal.calm_base_frac * calm_mult),
        blips=replace(cal.blips, rate_per_hour=cal.blips.rate_per_hour * rate_mult),
        spikes=replace(cal.spikes, rate_per_hour=cal.spikes.rate_per_hour * rate_mult),
        sharp_spikes=replace(
            cal.sharp_spikes, rate_per_hour=cal.sharp_spikes.rate_per_hour * rate_mult
        ),
    )
    return name, cal


VARIANTS = (
    _variant("baseline", 1.0, 1.0),
    _variant("half spikes", 0.5, 1.0),
    _variant("double spikes", 2.0, 1.0),
    _variant("cheaper calm (-40%)", 1.0, 0.6),
    _variant("pricier calm (+40%)", 1.0, 1.4),
)


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    rows = {}
    for name, cal in VARIANTS:
        for bidding in (ReactiveBidding(), ProactiveBidding()):
            sim = RunSpec(
                strategy=StrategySpec.single(KEY),
                bidding=bidding,
                mechanism=Mechanism.CKPT_LR,
                horizon_s=cfg.effective_horizon(),
                regions=("us-east-1a",),
                sizes=("small",),
                calibrations={("us-east-1a", "small"): cal},
                label=f"{name}/{bidding.name}",
            )
            batch = cfg.run_batch([sim.with_(seed=s) for s in cfg.effective_seeds()])
            rows[(name, bidding.name)] = aggregate(
                list(batch.results), label=f"{name}/{bidding.name}"
            )

    t = Table(
        headers=("variant", "policy", "norm cost %", "unavail %", "forced/hr"),
        title="calibration sensitivity (small, us-east-1a, CKPT+LR)",
    )
    for name, _cal in VARIANTS:
        for pol in ("reactive", "proactive"):
            a = rows[(name, pol)]
            t.add_row(name, pol, a.normalized_cost_percent,
                      a.unavailability_percent, a.forced_per_hour)
    report.add_artifact(t.render())

    ratios = {
        name: rows[(name, "reactive")].unavailability_percent
        / max(rows[(name, "proactive")].unavailability_percent, 1e-9)
        for name, _ in VARIANTS
    }
    report.compare(
        "proactive beats reactive availability in every variant (min ratio)",
        min(ratios.values()),
        expectation="the headline ordering is not a calibration artifact",
        holds=min(ratios.values()) > 1.5,
    )
    report.compare(
        "proactive never costlier than reactive (max delta)",
        max(
            rows[(name, "proactive")].normalized_cost_percent
            - rows[(name, "reactive")].normalized_cost_percent
            for name, _ in VARIANTS
        ),
        unit="% pts",
        expectation="cost ordering stable across variants",
        holds=all(
            rows[(name, "proactive")].normalized_cost_percent
            <= rows[(name, "reactive")].normalized_cost_percent + 1.0
            for name, _ in VARIANTS
        ),
    )
    report.compare(
        "cost tracks the calm level (pricier/cheaper ratio)",
        rows[("pricier calm (+40%)", "proactive")].normalized_cost_percent
        / max(rows[("cheaper calm (-40%)", "proactive")].normalized_cost_percent, 1e-9),
        expectation="absolute cost responds to the calm price as expected",
        holds=rows[("pricier calm (+40%)", "proactive")].normalized_cost_percent
        > rows[("cheaper calm (-40%)", "proactive")].normalized_cost_percent,
    )
    report.compare(
        "unavailability tracks the spike rate (double/half ratio, reactive)",
        rows[("double spikes", "reactive")].unavailability_percent
        / max(rows[("half spikes", "reactive")].unavailability_percent, 1e-9),
        expectation="more excursions, more forced migrations",
        holds=rows[("double spikes", "reactive")].unavailability_percent
        > rows[("half spikes", "reactive")].unavailability_percent,
    )
    return report
