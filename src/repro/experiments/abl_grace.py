"""Ablation: the revocation grace window.

The paper leans on EC2's (then-undocumented, later official) two-minute
warning: the final checkpoint increment flushes and the on-demand
replacement boots *inside* the window, so a forced migration's blackout is
just the restore. This sweep shrinks the window to zero and shows
unavailability climbing as first the startup overlap and then the
checkpoint flush fall out of it — quantifying how much the two-minute
warning is worth.
"""

from __future__ import annotations

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.bidding import ReactiveBidding
from repro.core.results import aggregate
from repro.core.simulation import RunSpec
from repro.experiments.common import ExperimentConfig
from repro.runtime import StrategySpec
from repro.traces.catalog import MarketKey
from repro.vm.mechanisms import Mechanism

EXPERIMENT_ID = "abl-grace"
TITLE = "Ablation: value of the two-minute revocation warning"

KEY = MarketKey("us-east-1a", "small")
GRACES = (0.0, 30.0, 60.0, 120.0, 240.0)


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    # Every grace x seed run in one batch. Reactive bidding makes forced
    # migrations frequent enough for the window to matter statistically.
    seeds = cfg.effective_seeds()
    base = RunSpec(strategy=StrategySpec.single(KEY), bidding=ReactiveBidding(),
                   mechanism=Mechanism.CKPT_LR, horizon_s=cfg.effective_horizon(),
                   regions=(KEY.region,), sizes=(KEY.size,))
    results = cfg.run_batch([base.with_(grace_s=g, seed=s) for g in GRACES for s in seeds]).results
    rows = {}  # grace -> seed-averaged (unavailability %, forced/hr)
    for i, g in enumerate(GRACES):
        agg = aggregate(results[i * len(seeds):(i + 1) * len(seeds)])
        rows[g] = (agg.unavailability_percent, agg.forced_per_hour)

    t = Table(
        headers=("grace window (s)", "unavail %", "forced/hr"),
        title="reactive bidding, CKPT+LR, small us-east-1a",
    )
    for g, (u, f) in rows.items():
        t.add_row(g, u, f)
    report.add_artifact(t.render())

    report.compare(
        "no warning is much worse than the two-minute warning",
        rows[0.0][0] / max(rows[120.0][0], 1e-9),
        expectation="without a window, the on-demand startup (~95 s) is "
        "fully exposed in every forced blackout",
        holds=rows[0.0][0] > 1.5 * rows[120.0][0],
    )
    violations = sum(
        1 for a, b in zip(GRACES, GRACES[1:]) if rows[b][0] > rows[a][0] * 1.15 + 1e-6
    )
    report.compare(
        "unavailability non-increasing in the window (violations)",
        float(violations),
        expectation="longer warnings never hurt",
        holds=violations == 0,
    )
    report.compare(
        "two minutes is already enough (240 s barely helps)",
        rows[120.0][0] / max(rows[240.0][0], 1e-9),
        expectation="startup (~95 s) and flush (<= tau) both fit in 120 s",
        holds=rows[120.0][0] < 1.4 * rows[240.0][0] + 1e-6,
    )
    spread = max(f for _, f in rows.values()) - min(f for _, f in rows.values())
    report.compare(
        "forced-migration rate independent of the window",
        spread,
        unit="/hr",
        expectation="the window changes blackout length, not revocations",
        holds=spread < 0.01,
    )
    return report
