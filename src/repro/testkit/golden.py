"""The golden-scenario corpus: small committed runs with expected reports.

Each :class:`GoldenScenario` is a fully seeded simulation small enough to
run in a second or two; its expected :class:`~repro.core.results`
report is committed as JSON under ``tests/golden/expected/``. The
regression test (``tests/golden/test_golden.py``) and ``repro-verify
--all-golden`` re-run every scenario and compare field-for-field; after an
*intentional* behaviour change, refresh the corpus with ``repro-verify
--update-golden`` and review the JSON diff like any other code change.

The corpus deliberately spans the regimes the paper's claims hang on:
calm markets, seeded revocation storms, a correlated spike straddling a
billing boundary, a pure-spot outage, slow checkpoints during a storm,
multi-market and multi-region escapes, the all-on-demand baseline, and —
mirroring the regimes real ``DescribeSpotPriceHistory`` archives exhibit —
sustained-high-price markets, scarce-capacity (GPU-style) sharp-spike
trains, cross-region correlated storms, a CSV → streaming-ingest → mmap
segment replay, and a run on calibrations refit from a generated archive.
:data:`FLEET_SCENARIOS` extends it with a pinned multi-tenant
:class:`~repro.fleet.report.FleetReport` (shared market, shared spare
pool, churn) checked by the same machinery.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bidding import ReactiveBidding
from repro.core.simulation import RunSpec, run_simulation_observed
from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec, ServiceSpec, synthesize_fleet
from repro.runtime.spec import StrategySpec
from repro.testkit.faults import FaultPlan
from repro.traces.calibration import MarketCalibration, calibration_for
from repro.traces.catalog import MarketKey
from repro.units import days, hours

__all__ = [
    "GoldenScenario",
    "GoldenFleetScenario",
    "SCENARIOS",
    "FLEET_SCENARIOS",
    "scenario_by_name",
    "run_scenario",
    "run_fleet_scenario",
    "check_scenarios",
    "update_golden",
    "default_golden_dir",
]

#: Environment override for the expected-report directory.
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"

#: Tolerance for float fields (JSON round-trips floats exactly; the
#: tolerance only guards against cross-platform libm differences).
REL_TOL = 1e-9


@dataclass(frozen=True)
class GoldenScenario:
    """One committed scenario: a name, a story and a seeded run."""

    name: str
    description: str
    build: Callable[[], RunSpec]

    def spec(self) -> RunSpec:
        """The scenario's run, labelled ``golden/<name>``."""
        return self.build().with_(label=f"golden/{self.name}")


def default_golden_dir() -> Path:
    """``tests/golden/expected`` relative to the repo root (overridable via
    the ``REPRO_GOLDEN_DIR`` environment variable)."""
    env = os.environ.get(GOLDEN_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "expected"


# ------------------------------------------------------------------- scenarios
_EAST = MarketKey("us-east-1a", "small")
_WEEK = days(7)


def _calm_single() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        seed=11,
        horizon_s=_WEEK,
        regions=("us-east-1a",),
        sizes=("small",),
    )


def _calm_large() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.single(MarketKey("us-east-1a", "large")),
        seed=23,
        horizon_s=_WEEK,
        regions=("us-east-1a",),
        sizes=("large",),
    )


def _storm_single() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        seed=31,
        horizon_s=_WEEK,
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.revocation_storm(401, _WEEK, n_spikes=6, duration_s=1800.0),
    )


def _spike_at_boundary() -> RunSpec:
    # The spike opens 90 s before the lease's 5th billing boundary — the
    # window where revocation is cheapest for the provider-side adversary
    # and the partial-hour-free rule matters most.
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        seed=43,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.correlated_spike(hours(5) - 90.0, hours(2)),
    )


def _pure_spot_outage() -> RunSpec:
    # No on-demand fallback: a correlated spike forces a dark period.
    return RunSpec(
        strategy=StrategySpec.pure_spot(_EAST),
        seed=53,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.correlated_spike(hours(30), hours(4)),
    )


def _on_demand_baseline() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.on_demand(_EAST),
        seed=61,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
    )


def _multi_market_storm() -> RunSpec:
    # Spikes hit only the small market, so the multi-market strategy can
    # escape sideways within the region.
    return RunSpec(
        strategy=StrategySpec.multi_market("us-east-1a"),
        seed=71,
        horizon_s=_WEEK,
        regions=("us-east-1a",),
        sizes=("small", "medium", "large", "xlarge"),
        faults=FaultPlan.revocation_storm(
            402, _WEEK, n_spikes=4, duration_s=3600.0, markets=("us-east-1a/small",)
        ),
    )


def _multi_region() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.multi_region(("us-east-1a", "us-west-1a")),
        seed=83,
        horizon_s=_WEEK,
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium", "large", "xlarge"),
    )


def _multi_region_correlated() -> RunSpec:
    # Every market spikes at once: cross-region escape can't help, the
    # scheduler must ride out the storm on on-demand.
    return RunSpec(
        strategy=StrategySpec.multi_region(("us-east-1a", "eu-west-1a")),
        seed=97,
        horizon_s=_WEEK,
        regions=("us-east-1a", "eu-west-1a"),
        sizes=("small", "medium", "large", "xlarge"),
        faults=FaultPlan.correlated_spike(days(2), hours(6)),
    )


def _slow_checkpoint_storm() -> RunSpec:
    # Storm plus degraded infrastructure: delayed/failing checkpoint
    # writes, doubled WAN disk copies, sluggish allocations.
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        seed=101,
        horizon_s=_WEEK,
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.revocation_storm(
            403,
            _WEEK,
            n_spikes=5,
            duration_s=2700.0,
            checkpoint_delay_s=45.0,
            checkpoint_failure_rate=0.25,
            disk_copy_factor=2.0,
            startup_factor=1.5,
        ),
    )


def _index_tracking_basket() -> RunSpec:
    # The Shastri & Irwin index tracker: a 3-market basket across two
    # regions, rebalanced within a 15 % band of the on-demand index.
    return RunSpec(
        strategy=StrategySpec.index_tracking(("us-east-1a", "us-west-1a")),
        seed=113,
        horizon_s=days(3),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium"),
    )


def _no_ft_storm() -> RunSpec:
    # No checkpoints: the correlated spike revokes the tenant, the
    # partial hour rides free, and recovery recomputes from the volume.
    return RunSpec(
        strategy=StrategySpec.no_fault_tolerance(_EAST),
        seed=127,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.correlated_spike(hours(30), hours(4)),
    )


def _portfolio_bid_lp() -> RunSpec:
    # The LP bid family: per-epoch risk/cost program over four markets.
    return RunSpec(
        strategy=StrategySpec.portfolio_bid(("us-east-1a", "us-west-1a")),
        seed=131,
        horizon_s=days(3),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium"),
    )


# -------------------------------------------------- archive-regime scenarios
# Calibration presets for the regimes real DescribeSpotPriceHistory
# archives exhibit (sustained-high markets, scarce-capacity spike trains,
# correlated cross-region storms). Each preset stays inside the
# MarketCalibration validation ranges, so build_catalog accepts it as-is.
def _sustained_high_cal(region: str, size: str) -> MarketCalibration:
    """Calm level parked just under on-demand with little dispersion: spot
    barely undercuts the baseline, as several real markets did after the
    2011 EC2 repricing."""
    return calibration_for(
        region, size, calm_base_frac=0.88, calm_sigma=0.04, calm_reversion=0.5
    )


def _gpu_scarcity_cal(region: str, size: str) -> MarketCalibration:
    """Scarce-capacity market: frequent sharp excursions far past the 4x
    bid cap, the shape GPU/accelerator pools show under contention."""
    cal = calibration_for(region, size)
    return dataclasses.replace(
        cal,
        sharp_spikes=dataclasses.replace(
            cal.sharp_spikes, rate_per_hour=0.02, peak_lo_frac=5.0, peak_hi_frac=12.0
        ),
        spikes=dataclasses.replace(
            cal.spikes, rate_per_hour=2.0 * cal.spikes.rate_per_hour
        ),
    )


def _stormy_cal(region: str, size: str) -> MarketCalibration:
    """Most excursions arrive from the shared regional/global shock
    streams, so markets spike together instead of independently."""
    return calibration_for(
        region, size, regional_shock_share=0.55, global_shock_share=0.3
    )


def _quiet_cal(region: str, size: str) -> MarketCalibration:
    """An unusually placid market: every excursion class at a fifth of its
    default rate (some real EU markets sat nearly flat for months)."""
    cal = calibration_for(region, size)
    return dataclasses.replace(
        cal,
        blips=dataclasses.replace(cal.blips, rate_per_hour=0.2 * cal.blips.rate_per_hour),
        spikes=dataclasses.replace(cal.spikes, rate_per_hour=0.2 * cal.spikes.rate_per_hour),
        sharp_spikes=dataclasses.replace(
            cal.sharp_spikes, rate_per_hour=0.2 * cal.sharp_spikes.rate_per_hour
        ),
    )


def _sustained_high_single() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        seed=137,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        calibrations={("us-east-1a", "small"): _sustained_high_cal("us-east-1a", "small")},
    )


def _sustained_high_reactive() -> RunSpec:
    # Reactive bidding on a sustained-high market: the bid-the-ceiling
    # policy pays nearly on-demand rates, the regime where Fig 5's
    # proactive/reactive gap collapses.
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        bidding=ReactiveBidding(),
        seed=139,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        calibrations={("us-east-1a", "small"): _sustained_high_cal("us-east-1a", "small")},
    )


def _sustained_high_multi_market() -> RunSpec:
    # Only the small market is sustained-high; sideways escape within the
    # region recovers most of the spot discount.
    return RunSpec(
        strategy=StrategySpec.multi_market("us-east-1a"),
        seed=149,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small", "medium", "large", "xlarge"),
        calibrations={("us-east-1a", "small"): _sustained_high_cal("us-east-1a", "small")},
    )


def _sustained_high_pure_spot() -> RunSpec:
    # No on-demand fallback on a market that is expensive but rarely
    # revokes: high cost, little downtime.
    return RunSpec(
        strategy=StrategySpec.pure_spot(_EAST),
        seed=193,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        calibrations={("us-east-1a", "small"): _sustained_high_cal("us-east-1a", "small")},
    )


_XL_EAST = MarketKey("us-east-1a", "xlarge")


def _gpu_scarcity_single() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.single(_XL_EAST),
        seed=151,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("xlarge",),
        calibrations={("us-east-1a", "xlarge"): _gpu_scarcity_cal("us-east-1a", "xlarge")},
    )


def _gpu_scarcity_no_ft() -> RunSpec:
    # Sharp spike trains against a tenant with no checkpoints: every
    # revocation recomputes from the volume.
    return RunSpec(
        strategy=StrategySpec.no_fault_tolerance(_XL_EAST),
        seed=157,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("xlarge",),
        calibrations={("us-east-1a", "xlarge"): _gpu_scarcity_cal("us-east-1a", "xlarge")},
    )


def _gpu_scarcity_multi_market() -> RunSpec:
    # Scarcity hits only the xlarge market; the multi-market scheduler can
    # wait it out on the calmer sizes.
    return RunSpec(
        strategy=StrategySpec.multi_market("us-east-1a"),
        seed=163,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small", "medium", "large", "xlarge"),
        calibrations={("us-east-1a", "xlarge"): _gpu_scarcity_cal("us-east-1a", "xlarge")},
    )


def _storm_cals(regions, sizes):
    return {(r, s): _stormy_cal(r, s) for r in regions for s in sizes}


def _correlated_storm_regional() -> RunSpec:
    # Heavy shared-shock shares: excursions synchronize within and across
    # regions, eroding the diversification the multi-region escape buys.
    return RunSpec(
        strategy=StrategySpec.multi_region(("us-east-1a", "us-west-1a")),
        seed=167,
        horizon_s=days(3),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium"),
        calibrations=_storm_cals(("us-east-1a", "us-west-1a"), ("small", "medium")),
    )


def _correlated_storm_global() -> RunSpec:
    # Correlated generator shocks plus a scripted all-market spike: the
    # worst case for cross-region hosting.
    return RunSpec(
        strategy=StrategySpec.multi_region(("us-east-1a", "eu-west-1a")),
        seed=173,
        horizon_s=days(3),
        regions=("us-east-1a", "eu-west-1a"),
        sizes=("small", "medium"),
        calibrations=_storm_cals(("us-east-1a", "eu-west-1a"), ("small", "medium")),
        faults=FaultPlan.correlated_spike(days(1), hours(3)),
    )


def _correlated_storm_portfolio() -> RunSpec:
    # The LP bid family under correlated shocks: predicted revocation risk
    # rises everywhere at once, stressing the risk-cap constraint.
    return RunSpec(
        strategy=StrategySpec.portfolio_bid(("us-east-1a", "us-west-1a")),
        seed=179,
        horizon_s=days(3),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium"),
        calibrations=_storm_cals(("us-east-1a", "us-west-1a"), ("small", "medium")),
    )


def _correlated_storm_index() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.index_tracking(("us-east-1a", "us-west-1a")),
        seed=181,
        horizon_s=days(3),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium"),
        calibrations=_storm_cals(("us-east-1a", "us-west-1a"), ("small", "medium")),
    )


def _stability_weighted_storm() -> RunSpec:
    # The stability-weighted family pays a premium to avoid churn; a storm
    # on one market shows what that premium buys.
    return RunSpec(
        strategy=StrategySpec.stability(("us-east-1a", "us-west-1a"), stability_weight=2.0),
        seed=191,
        horizon_s=days(3),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium"),
        faults=FaultPlan.revocation_storm(
            404, days(3), n_spikes=3, duration_s=1800.0, markets=("us-east-1a/small",)
        ),
    )


def _calm_quiet_eu() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.single(MarketKey("eu-west-1a", "large")),
        seed=197,
        horizon_s=days(3),
        regions=("eu-west-1a",),
        sizes=("large",),
        calibrations={("eu-west-1a", "large"): _quiet_cal("eu-west-1a", "large")},
    )


def _storm_reactive() -> RunSpec:
    # Reactive bidding through a storm: every spike revokes immediately
    # (the ceiling bid is always crossed), maximizing migration traffic.
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        bidding=ReactiveBidding(),
        seed=223,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.revocation_storm(405, days(3), n_spikes=3, duration_s=1800.0),
    )


def _spike_train_medium() -> RunSpec:
    # A seeded three-spike train on the medium market: repeated forced
    # migrations with full recovery between spikes.
    return RunSpec(
        strategy=StrategySpec.single(MarketKey("us-east-1a", "medium")),
        seed=227,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("medium",),
        faults=FaultPlan.revocation_storm(406, days(3), n_spikes=3, duration_s=1200.0),
    )


@functools.lru_cache(maxsize=None)
def _archive_dir() -> tempfile.TemporaryDirectory:
    # End-to-end data-path pin, built once per process and kept until it
    # exits: one generated market, written as an AWS CSV archive and
    # stream-ingested into mmap-compiled segments. The ingest tests prove
    # the mmap path matches the in-memory one bit-for-bit.
    from repro.traces.catalog import build_catalog
    from repro.traces.ingest import ingest_archive
    from repro.traces.loader import save_aws_csv

    source = build_catalog(199, days(3), regions=("us-east-1a",), sizes=("small",))
    tmp = tempfile.TemporaryDirectory(prefix="repro-golden-segments-")
    root = Path(tmp.name)
    save_aws_csv(
        source.trace(_EAST),
        root / "archive.csv",
        instance_type="m1.small",
        availability_zone="us-east-1a",
    )
    ingest_archive(root / "archive.csv", root / "segments", horizon=days(3))
    return tmp


def _archive_roundtrip() -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.single(_EAST),
        seed=199,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        traces=str((Path(_archive_dir().name) / "segments").resolve()),
    )


def _refit_regenerated() -> RunSpec:
    # Closes the refit loop inside the corpus: fit the regime-switching
    # parameters to a generated two-market history, then simulate on
    # traces regenerated *from the fit*. Any drift in the fit -> generate
    # round trip shows up as a golden diff.
    from repro.traces.catalog import build_catalog
    from repro.traces.refit import fit_catalog

    source = build_catalog(7, days(10), regions=("us-east-1a",), sizes=("small", "medium"))
    fitted = fit_catalog(source, grid_step_s=900.0)
    return RunSpec(
        strategy=StrategySpec.multi_market("us-east-1a"),
        seed=211,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small", "medium"),
        calibrations=fitted,
    )


SCENARIOS: Tuple[GoldenScenario, ...] = (
    GoldenScenario("calm-single", "single market, calm generated trace", _calm_single),
    GoldenScenario("calm-large", "large instance, calm generated trace", _calm_large),
    GoldenScenario("storm-single", "seeded 6-spike revocation storm", _storm_single),
    GoldenScenario(
        "spike-at-boundary", "correlated spike opening just before a billing boundary",
        _spike_at_boundary,
    ),
    GoldenScenario(
        "pure-spot-outage", "pure-spot strategy rides through a forced dark period",
        _pure_spot_outage,
    ),
    GoldenScenario(
        "on-demand-baseline", "all-on-demand control: no migrations, 100% cost",
        _on_demand_baseline,
    ),
    GoldenScenario(
        "multi-market-storm", "storm on one market, sideways escape available",
        _multi_market_storm,
    ),
    GoldenScenario("multi-region", "two-region deployment, calm markets", _multi_region),
    GoldenScenario(
        "multi-region-correlated", "all markets spike at once across regions",
        _multi_region_correlated,
    ),
    GoldenScenario(
        "slow-checkpoint-storm", "storm with failing checkpoints and slow copies",
        _slow_checkpoint_storm,
    ),
    GoldenScenario(
        "index-tracking-basket", "spot basket tracking the on-demand index",
        _index_tracking_basket,
    ),
    GoldenScenario(
        "no-ft-storm", "no-checkpoint tenant revoked by a correlated spike",
        _no_ft_storm,
    ),
    GoldenScenario(
        "portfolio-bid-lp", "LP risk/cost market selection over four markets",
        _portfolio_bid_lp,
    ),
    GoldenScenario(
        "sustained-high-single", "calm level parked just under on-demand",
        _sustained_high_single,
    ),
    GoldenScenario(
        "sustained-high-reactive", "reactive bidding where spot barely undercuts",
        _sustained_high_reactive,
    ),
    GoldenScenario(
        "sustained-high-multi-market", "sideways escape from one expensive market",
        _sustained_high_multi_market,
    ),
    GoldenScenario(
        "sustained-high-pure-spot", "pure spot on an expensive, rarely-revoking market",
        _sustained_high_pure_spot,
    ),
    GoldenScenario(
        "gpu-scarcity-single", "frequent sharp spikes past the 4x bid cap",
        _gpu_scarcity_single,
    ),
    GoldenScenario(
        "gpu-scarcity-no-ft", "scarcity spike train against a no-checkpoint tenant",
        _gpu_scarcity_no_ft,
    ),
    GoldenScenario(
        "gpu-scarcity-multi-market", "xlarge scarcity, calmer sizes available",
        _gpu_scarcity_multi_market,
    ),
    GoldenScenario(
        "correlated-storm-regional", "shared-shock shares synchronize two regions",
        _correlated_storm_regional,
    ),
    GoldenScenario(
        "correlated-storm-global", "correlated shocks plus a scripted all-market spike",
        _correlated_storm_global,
    ),
    GoldenScenario(
        "correlated-storm-portfolio", "LP bid family under correlated shocks",
        _correlated_storm_portfolio,
    ),
    GoldenScenario(
        "correlated-storm-index", "index tracker under correlated shocks",
        _correlated_storm_index,
    ),
    GoldenScenario(
        "stability-weighted-storm", "churn-averse family rides out a one-market storm",
        _stability_weighted_storm,
    ),
    GoldenScenario(
        "calm-quiet-eu", "placid EU market at a fifth of default excursion rates",
        _calm_quiet_eu,
    ),
    GoldenScenario(
        "storm-reactive", "reactive ceiling bids revoked by every storm spike",
        _storm_reactive,
    ),
    GoldenScenario(
        "spike-train-medium", "three-spike train with recovery between spikes",
        _spike_train_medium,
    ),
    GoldenScenario(
        "archive-roundtrip", "CSV -> streaming ingest -> mmap segment replay",
        _archive_roundtrip,
    ),
    GoldenScenario(
        "refit-regenerated", "simulate on calibrations refit from a generated archive",
        _refit_regenerated,
    ),
)


@dataclass(frozen=True)
class GoldenFleetScenario:
    """One committed fleet scenario: a seeded :class:`FleetSpec` whose
    :class:`~repro.fleet.report.FleetReport` is pinned as JSON."""

    name: str
    description: str
    build: Callable[[], FleetSpec]

    def spec(self) -> FleetSpec:
        return self.build()


def _fleet_small() -> FleetSpec:
    # Eight heterogeneous tenants plus seeded churn over a 2-region,
    # 2-size market grid: small enough for seconds, rich enough to
    # exercise the shared spare pool and the churn proration path. One
    # explicit index-tracking tenant pins the basket family in the fleet
    # corpus regardless of what the seeded cohort draw happens to pick.
    fleet = synthesize_fleet(
        8,
        seed=5,
        horizon_s=days(3),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small", "medium"),
        churn_per_week=4.0,
        spare_capacity=2,
    )
    tracker = ServiceSpec(
        name="svc-index-tracker",
        strategy=StrategySpec.index_tracking(("us-east-1a", "us-west-1a")),
    )
    return fleet.with_(services=fleet.services + (tracker,))


FLEET_SCENARIOS: Tuple[GoldenFleetScenario, ...] = (
    GoldenFleetScenario(
        "fleet-small",
        "8-service fleet with churn on a shared 4-market grid",
        _fleet_small,
    ),
)


def scenario_by_name(name: str):
    for s in (*SCENARIOS, *FLEET_SCENARIOS):
        if s.name == name:
            return s
    known = [s.name for s in SCENARIOS] + [s.name for s in FLEET_SCENARIOS]
    raise ConfigurationError(f"unknown golden scenario {name!r}; known: {known}")


# ------------------------------------------------------------------- execution
def run_scenario(scenario: GoldenScenario, verify: bool = True) -> Dict[str, object]:
    """Run one scenario (with the invariant oracles by default) and return
    its report as a JSON-ready dict."""
    observed = run_simulation_observed(scenario.spec(), verify=verify)
    return dataclasses.asdict(observed.result)


def run_fleet_scenario(
    scenario: GoldenFleetScenario, verify: bool = True
) -> Dict[str, object]:
    """Run one fleet scenario (with the fleet invariant oracles by
    default) and return its :class:`~repro.fleet.report.FleetReport` as a
    JSON-ready dict."""
    from repro.fleet.runner import run_fleet

    return run_fleet(scenario.spec(), verify=verify).to_dict()


def _run_any(scenario, verify: bool) -> Dict[str, object]:
    if isinstance(scenario, GoldenFleetScenario):
        return run_fleet_scenario(scenario, verify=verify)
    return run_scenario(scenario, verify=verify)


def _expected_path(golden_dir: Path, scenario) -> Path:
    return golden_dir / f"{scenario.name}.json"


def _diff_value(path: str, e: object, a: object, out: List[str]) -> None:
    """Recursive comparison; problems are appended as ``path: detail``."""
    if isinstance(e, bool) or isinstance(a, bool):
        # bool is an int subclass — compare exactly, before the float branch.
        if e != a:
            out.append(f"{path}: expected {e!r}, got {a!r}")
    elif isinstance(e, float) and isinstance(a, (int, float)):
        if not math.isclose(e, float(a), rel_tol=REL_TOL, abs_tol=REL_TOL):
            out.append(f"{path}: expected {e!r}, got {a!r}")
    elif isinstance(e, dict) and isinstance(a, dict):
        for key in sorted(set(e) | set(a)):
            sub = f"{path}[{key!r}]" if path else str(key)
            if key not in e:
                out.append(f"{sub}: unexpected new field = {a[key]!r}")
            elif key not in a:
                out.append(f"{sub}: field missing (expected {e[key]!r})")
            else:
                _diff_value(sub, e[key], a[key], out)
    elif isinstance(e, (list, tuple)) and isinstance(a, (list, tuple)):
        if len(e) != len(a):
            out.append(f"{path}: expected {len(e)} item(s), got {len(a)}")
            return
        for i, (ev, av) in enumerate(zip(e, a)):
            _diff_value(f"{path}[{i}]", ev, av, out)
    elif e != a:
        out.append(f"{path}: expected {e!r}, got {a!r}")


def _diff(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """Field-level differences between two (possibly nested) report dicts."""
    out: List[str] = []
    _diff_value("", expected, actual, out)
    return out


def check_scenarios(
    names: Optional[List[str]] = None,
    golden_dir: Optional[Path] = None,
    verify: bool = True,
) -> Dict[str, List[str]]:
    """Run scenarios and compare to their committed expected reports.

    Returns ``{scenario name: [differences]}`` — empty lists mean a clean
    match; a missing expected file reports as one difference.
    """
    golden_dir = golden_dir if golden_dir is not None else default_golden_dir()
    chosen = (
        [scenario_by_name(n) for n in names]
        if names
        else [*SCENARIOS, *FLEET_SCENARIOS]
    )
    out: Dict[str, List[str]] = {}
    for scenario in chosen:
        path = _expected_path(golden_dir, scenario)
        if not path.exists():
            out[scenario.name] = [
                f"no expected report at {path} (run repro-verify --update-golden)"
            ]
            continue
        expected = json.loads(path.read_text())
        actual = _run_any(scenario, verify=verify)
        out[scenario.name] = _diff(expected, actual)
    return out


def update_golden(
    names: Optional[List[str]] = None, golden_dir: Optional[Path] = None
) -> Dict[str, Path]:
    """(Re)write the expected reports; returns ``{name: path written}``."""
    golden_dir = golden_dir if golden_dir is not None else default_golden_dir()
    golden_dir.mkdir(parents=True, exist_ok=True)
    chosen = (
        [scenario_by_name(n) for n in names]
        if names
        else [*SCENARIOS, *FLEET_SCENARIOS]
    )
    written: Dict[str, Path] = {}
    for scenario in chosen:
        actual = _run_any(scenario, verify=True)
        path = _expected_path(golden_dir, scenario)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        written[scenario.name] = path
    return written
