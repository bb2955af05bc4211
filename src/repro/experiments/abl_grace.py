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

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.cloud.provider import CloudProvider
from repro.core.bidding import ReactiveBidding
from repro.core.scheduler import CloudScheduler
from repro.core.strategies import SingleMarketStrategy
from repro.experiments.common import ExperimentConfig
from repro.runtime import shared_catalog
from repro.simulator.engine import Engine
from repro.simulator.rng import RngStreams
from repro.traces.catalog import MarketKey
from repro.vm.mechanisms import Mechanism, MigrationModel, TYPICAL_PARAMS

EXPERIMENT_ID = "abl-grace"
TITLE = "Ablation: value of the two-minute revocation warning"

KEY = MarketKey("us-east-1a", "small")
GRACES = (0.0, 30.0, 60.0, 120.0, 240.0)


def _run(cfg: ExperimentConfig, grace_s: float) -> tuple[float, float]:
    """(unavailability %, forced/hr) under one grace window, seed-averaged.

    Uses the reactive policy so forced migrations are frequent enough for
    the grace window to matter statistically.
    """
    unav, forced = [], []
    for seed in cfg.effective_seeds():
        cat = shared_catalog(seed=seed, horizon=cfg.effective_horizon(),
                             regions=("us-east-1a",), sizes=("small",))
        streams = RngStreams(seed)
        provider = CloudProvider(cat, rng=streams.get("provider/startup"),
                                 grace_s=grace_s)
        sch = CloudScheduler(
            engine=Engine(), provider=provider, bidding=ReactiveBidding(),
            strategy=SingleMarketStrategy(KEY),
            migration_model=MigrationModel(Mechanism.CKPT_LR, TYPICAL_PARAMS),
            rng=streams.get("scheduler/jitter"),
            horizon=cfg.effective_horizon(),
        )
        sch.run()
        unav.append(sch.availability.unavailability_percent())
        forced.append(sch.migrations_per_hour("forced"))
    return float(np.mean(unav)), float(np.mean(forced))


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    rows = {g: _run(cfg, g) for g in GRACES}

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
    report.compare(
        "unavailability non-increasing in the window (violations)",
        float(sum(
            1 for a, b in zip(GRACES, GRACES[1:])
            if rows[b][0] > rows[a][0] * 1.15 + 1e-6
        )),
        expectation="longer warnings never hurt",
        holds=all(
            rows[b][0] <= rows[a][0] * 1.15 + 1e-6
            for a, b in zip(GRACES, GRACES[1:])
        ),
    )
    report.compare(
        "two minutes is already enough (240 s barely helps)",
        rows[120.0][0] / max(rows[240.0][0], 1e-9),
        expectation="startup (~95 s) and flush (<= tau) both fit in 120 s",
        holds=rows[120.0][0] < 1.4 * rows[240.0][0] + 1e-6,
    )
    report.compare(
        "forced-migration rate independent of the window",
        max(f for _, f in rows.values()) - min(f for _, f in rows.values()),
        unit="/hr",
        expectation="the window changes blackout length, not revocations",
        holds=(max(f for _, f in rows.values())
               - min(f for _, f in rows.values())) < 0.01,
    )
    return report
