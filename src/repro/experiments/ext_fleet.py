"""Extension: the fleet cost/availability frontier on one shared market.

A derivative-cloud operator choosing how to host a fleet trades cost
against availability fleet-wide, not per service. This experiment runs
the same tenant population under three hosting profiles on the *same*
shared market sample:

* **aggressive** — every tenant single-market on spot at the 4x bid cap:
  cheapest, but every price spike turns into a correlated revocation
  storm the spare pool must absorb;
* **balanced** — the default :func:`~repro.fleet.spec.synthesize_fleet`
  mix of strategies, bid multipliers and targets;
* **conservative** — half the tenants all-on-demand, the rest
  multi-region with cautious bids: most expensive, best availability.

A second artifact sweeps the shared warm-spare pool's capacity under the
balanced profile, tracing hit rate against pool size — the operator's
sizing curve (claims are identical across capacities; only grants move).
"""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.analysis.report import ExperimentReport
from repro.analysis.tables import Table
from repro.core.bidding import ProactiveBidding
from repro.experiments.common import ExperimentConfig
from repro.fleet.runner import assemble_report
from repro.fleet.spec import FleetSpec, ServiceSpec, synthesize_fleet
from repro.runtime.spec import StrategySpec
from repro.traces.calibration import ALL_REGIONS
from repro.traces.catalog import MarketKey

EXPERIMENT_ID = "ext-fleet"
TITLE = "Extension: fleet cost/availability frontier on a shared spot market"

SIZES = ("small", "medium", "large", "xlarge")
PROFILES = ("aggressive", "balanced", "conservative")
CAPACITY_SWEEP = (0, 1, 2, 4, 8)


def _build_fleet(profile: str, n: int, seed: int, horizon_s: float) -> FleetSpec:
    if profile == "balanced":
        return synthesize_fleet(
            n, seed=seed, horizon_s=horizon_s, regions=ALL_REGIONS, sizes=SIZES
        )
    markets = tuple(MarketKey(r, s) for r in ALL_REGIONS for s in SIZES)
    services = []
    for i in range(n):
        market = markets[i % len(markets)]
        if profile == "aggressive":
            svc = ServiceSpec(
                name=f"svc-{i:04d}",
                strategy=StrategySpec.single(market),
                bidding=ProactiveBidding(k=4.0),
                availability_target_percent=99.9,
            )
        else:  # conservative
            if i % 2 == 0:
                strategy = StrategySpec.on_demand(market)
            else:
                strategy = StrategySpec.multi_region(
                    (market.region, ALL_REGIONS[(i + 1) % len(ALL_REGIONS)])
                )
            svc = ServiceSpec(
                name=f"svc-{i:04d}",
                strategy=strategy,
                bidding=ProactiveBidding(k=2.5),
                availability_target_percent=99.99,
            )
        services.append(svc)
    return FleetSpec(
        services=tuple(services),
        seed=seed,
        horizon_s=horizon_s,
        regions=ALL_REGIONS,
        sizes=SIZES,
        spare_capacity=max(2, n // 10),
    )


def run(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    n = 12 if cfg.fast else 36
    horizon = cfg.effective_horizon()
    seeds = cfg.effective_seeds()

    stats: dict[str, dict[str, float]] = {}
    t = Table(
        headers=("profile", "norm cost %", "mean unavail %", "p99 downtime (s)",
                 "spare hit %", "targets met"),
        title=f"{n}-service fleet over {len(ALL_REGIONS) * len(SIZES)} markets, "
        f"seed-averaged ({len(seeds)} seeds)",
    )
    seed0 = seeds[0]
    for profile in PROFILES:
        runs = []
        for seed in seeds:
            fleet = _build_fleet(profile, n, seed, horizon)
            results = runtime.run_batch(
                list(fleet.run_specs()),
                jobs=cfg.jobs,
                engine=cfg.engine,
                ledger=cfg.effective_ledger(),
                resume=cfg.resume,
            ).results
            runs.append(assemble_report(fleet, results))
            if profile == "balanced" and seed == seed0:
                base, base_results = fleet, results
        stats[profile] = dict(
            cost=float(np.mean([r.normalized_cost_percent for r in runs])),
            unav=float(np.mean([r.mean_unavailability_percent for r in runs])),
            p99=float(np.mean([r.downtime_p99_s for r in runs])),
            hit=float(np.mean([r.spare_pool.hit_rate for r in runs])),
            met=float(np.mean([r.services_meeting_target / r.n_services for r in runs])),
        )
        s = stats[profile]
        t.add_row(profile, s["cost"], s["unav"], s["p99"],
                  100.0 * s["hit"], f"{100.0 * s['met']:.0f}%")
    report.add_artifact(t.render())

    # Spare-pool sizing curve: same balanced fleet, growing capacity. The
    # pool only replays the fleet's forced migrations, so the services'
    # runs do not depend on its capacity: the balanced profile's seed-0
    # results above give one report per capacity.
    ct = Table(
        headers=("spare capacity", "claims", "hits", "hit %", "peak in use"),
        title=f"balanced fleet, seed {seed0}: spare-pool sizing curve",
    )
    hit_rates = []
    for capacity in CAPACITY_SWEEP:
        sp = assemble_report(
            base.with_(spare_capacity=capacity), base_results
        ).spare_pool
        hit_rates.append(sp.hit_rate)
        ct.add_row(capacity, sp.claims, sp.hits, 100.0 * sp.hit_rate, sp.peak_in_use)
    report.add_artifact(ct.render())

    agg, bal, con = stats["aggressive"], stats["balanced"], stats["conservative"]
    report.compare(
        "aggressive hosting is the cheapest profile",
        agg["cost"],
        unit="%",
        expectation="all-spot at the bid cap undercuts mixed profiles",
        holds=agg["cost"] < bal["cost"] < con["cost"],
    )
    report.compare(
        "conservative hosting is the most available profile",
        con["unav"],
        unit="%",
        expectation="on-demand anchoring buys availability with cost",
        holds=con["unav"] <= bal["unav"] + 1e-9 and con["unav"] <= agg["unav"] + 1e-9,
    )
    report.compare(
        "every profile stays far below the on-demand baseline",
        max(agg["cost"], bal["cost"]),
        unit="%",
        expectation="fleet-level savings persist across profiles",
        holds=agg["cost"] < 60.0 and bal["cost"] < 70.0,
    )
    report.compare(
        "spare-pool hit rate grows with capacity",
        hit_rates[-1],
        expectation="a bigger pool absorbs more of the worst burst",
        holds=all(a <= b + 1e-12 for a, b in zip(hit_rates, hit_rates[1:]))
        and (hit_rates[-1] >= hit_rates[0]),
    )
    return report
