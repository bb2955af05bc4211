"""The spot pool: many tenant services on one simulated cloud.

All tenants share one :class:`~repro.simulator.engine.Engine` and one
:class:`~repro.cloud.provider.CloudProvider`, so every tenant sees the
*same* price sample — a spike in a market revokes every tenant placed
there simultaneously, which is exactly the co-revocation risk the
placement policy manages:

* ``diverse`` — tenants are spread round-robin across the catalog's spot
  markets, so one market's spike forces only its own tenants;
* ``concentrated`` — every tenant sits in the single cheapest market,
  minimizing cost variance but coupling all failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence

import numpy as np

from repro.cloud.provider import CloudProvider
from repro.core.bidding import BiddingPolicy, ProactiveBidding
from repro.core.scheduler import CloudScheduler
from repro.core.strategies import SingleMarketStrategy
from repro.errors import ConfigurationError
from repro.fleet.spares import DEFAULT_HANDOVER_WINDOW_S, concurrent_events
from repro.runtime.cache import shared_catalog
from repro.simulator.engine import Engine
from repro.simulator.rng import RngStreams
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.units import SECONDS_PER_HOUR, days
from repro.vm.mechanisms import Mechanism, MechanismParams, MigrationModel, TYPICAL_PARAMS

__all__ = ["PoolConfig", "ServiceOutcome", "PoolResult", "SpotPool"]


@dataclass(frozen=True)
class PoolConfig:
    """Configuration of one pool run."""

    n_services: int = 12
    placement: Literal["diverse", "concentrated"] = "diverse"
    size: str = "small"
    regions: Sequence[str] = ("us-east-1a", "us-east-1b")
    bidding: BiddingPolicy = field(default_factory=ProactiveBidding)
    mechanism: Mechanism = Mechanism.CKPT_LR_LIVE
    params: MechanismParams = TYPICAL_PARAMS
    seed: int = 0
    horizon_s: float = days(30)
    catalog: Optional[TraceCatalog] = None

    def __post_init__(self) -> None:
        if self.n_services <= 0:
            raise ConfigurationError("pool needs at least one service")
        if self.placement not in ("diverse", "concentrated"):
            raise ConfigurationError(f"unknown placement {self.placement!r}")


@dataclass(frozen=True)
class ServiceOutcome:
    """Per-tenant results."""

    service_id: int
    market: MarketKey
    total_cost: float
    unavailability_percent: float
    forced_migrations: int
    forced_times: tuple
    downtime_s: float


@dataclass(frozen=True)
class PoolResult:
    """Pool-level aggregation."""

    services: tuple
    duration_hours: float
    baseline_rate_per_service: float
    spare_servers_needed: int
    handover_window_s: float

    @property
    def n_services(self) -> int:
        return len(self.services)

    @property
    def total_cost(self) -> float:
        return sum(s.total_cost for s in self.services)

    @property
    def normalized_cost_percent(self) -> float:
        baseline = self.baseline_rate_per_service * self.duration_hours * self.n_services
        return 100.0 * self.total_cost / baseline

    @property
    def mean_unavailability_percent(self) -> float:
        return float(np.mean([s.unavailability_percent for s in self.services]))

    @property
    def worst_unavailability_percent(self) -> float:
        return float(max(s.unavailability_percent for s in self.services))

    @property
    def total_forced(self) -> int:
        return sum(s.forced_migrations for s in self.services)

    @property
    def spare_fraction(self) -> float:
        """Spare servers as a fraction of the tenant fleet."""
        return self.spare_servers_needed / self.n_services


class SpotPool:
    """Runs ``n_services`` independent schedulers on one shared world."""

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.catalog = config.catalog or shared_catalog(
            seed=config.seed,
            horizon=config.horizon_s,
            regions=tuple(config.regions),
        )
        spot_markets = [
            k for k in self.catalog.markets() if k.size == config.size
        ]
        if not spot_markets:
            raise ConfigurationError(
                f"catalog has no markets of size {config.size!r}"
            )
        self.markets = spot_markets

    def _market_for(self, service_id: int, t0: float) -> MarketKey:
        if self.config.placement == "concentrated":
            return min(self.markets, key=lambda k: self.catalog.trace(k).price_at(t0))
        return self.markets[service_id % len(self.markets)]

    def run(self, handover_window_s: float = DEFAULT_HANDOVER_WINDOW_S) -> PoolResult:
        """Simulate the whole pool and aggregate."""
        cfg = self.config
        streams = RngStreams(cfg.seed)
        engine = Engine()
        provider = CloudProvider(self.catalog, rng=streams.get("pool/provider"))
        schedulers: Dict[int, CloudScheduler] = {}
        for i in range(cfg.n_services):
            key = self._market_for(i, 0.0)
            sch = CloudScheduler(
                engine=engine,
                provider=provider,
                bidding=cfg.bidding,
                strategy=SingleMarketStrategy(key),
                migration_model=MigrationModel(cfg.mechanism, cfg.params),
                rng=streams.get(f"pool/service{i}"),
                horizon=cfg.horizon_s,
            )
            sch.start()
            schedulers[i] = sch
        engine.run(until=cfg.horizon_s + 1.0)

        outcomes: List[ServiceOutcome] = []
        for i, sch in schedulers.items():
            forced = tuple(
                m.started_at for m in sch.migrations if m.kind == "forced"
            )
            outcomes.append(
                ServiceOutcome(
                    service_id=i,
                    market=self._market_for(i, 0.0),
                    total_cost=sch.ledger.total,
                    unavailability_percent=sch.availability.unavailability_percent(),
                    forced_migrations=len(forced),
                    forced_times=forced,
                    downtime_s=sch.availability.total_downtime(),
                )
            )
        duration_h = cfg.horizon_s / SECONDS_PER_HOUR
        baseline = min(
            self.catalog.on_demand_price(k) for k in self.markets
        )
        spares = concurrent_events(
            [t for o in outcomes for t in o.forced_times], handover_window_s
        )
        return PoolResult(
            services=tuple(outcomes),
            duration_hours=duration_h,
            baseline_rate_per_service=baseline,
            spare_servers_needed=spares,
            handover_window_s=handover_window_s,
        )
