"""Fleet descriptions: many heterogeneous services over one shared market.

A :class:`ServiceSpec` is one tenant: its hosting strategy, bidding
policy, migration mechanism, availability target, spare quota, and active
window within the fleet horizon. A :class:`FleetSpec` bundles N of them
with the *shared* market identity (seed, horizon, regions, sizes) and the
shared warm-spare pool's parameters.

Shared-market semantics
-----------------------
Spot prices are exogenous to tenants in this model, so "one shared
market" means: every service's run resolves the **identical** seeded
trace catalog. :meth:`FleetSpec.run_specs` therefore pins every
per-service :class:`~repro.runtime.RunSpec` to the fleet's seed, horizon,
regions, and sizes — the runtime's catalog cache then serves one catalog
to all N runs (one generation per process), and a price spike
revokes every tenant bidding in that market at the same simulated
instant. Heterogeneity lives entirely in the fields *outside* the
catalog key: strategy, bidding, mechanism, startup jitter, disk
footprint, label. Two services with identical configurations are exact
twins by construction — the executor's dynamics-signature dedupe
collapses them into one simulation, which is a feature, not a bug.

Churn
-----
:func:`synthesize_fleet` draws a seeded arrival process: an initial
cohort active for the whole horizon plus Poisson arrivals that join at a
uniform instant and leave after an exponential lifetime. Mid-horizon
services are simulated full-horizon and prorated to their active window
by the runner (steady-state proration — see ``docs/FLEET.md``), keeping
every run on the shared catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from repro.core.bidding import BiddingPolicy, ProactiveBidding, ReactiveBidding
from repro.core.simulation import RunSpec
from repro.errors import ConfigurationError
from repro.fleet.spares import DEFAULT_HANDOVER_WINDOW_S
from repro.runtime.spec import StrategySpec
from repro.traces.calibration import ALL_REGIONS, SIZES
from repro.traces.catalog import MarketKey
from repro.units import days
from repro.vm.mechanisms import Mechanism, MechanismParams, TYPICAL_PARAMS

__all__ = ["ServiceSpec", "FleetSpec", "synthesize_fleet"]


@dataclass(frozen=True)
class ServiceSpec:
    """One tenant service in a fleet.

    ``arrival_s``/``departure_s`` bound the service's active window inside
    the fleet horizon (``departure_s=None`` means it runs to the end).
    ``spare_quota`` caps how many shared warm spares the service may hold
    at once; ``weight`` scales its contribution to fleet-aggregate cost
    (a stand-in for footprint size).
    """

    name: str
    strategy: StrategySpec
    bidding: BiddingPolicy = field(default_factory=ProactiveBidding)
    mechanism: Mechanism = Mechanism.CKPT_LR_LIVE
    params: MechanismParams = TYPICAL_PARAMS
    availability_target_percent: float = 99.99
    spare_quota: int = 1
    weight: float = 1.0
    arrival_s: float = 0.0
    departure_s: Optional[float] = None
    startup_cv: float = 0.25
    service_disk_gib: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("service needs a name")
        if self.spare_quota < 0:
            raise ConfigurationError(f"{self.name}: spare quota must be >= 0")
        if self.weight <= 0:
            raise ConfigurationError(f"{self.name}: weight must be positive")
        if self.arrival_s < 0:
            raise ConfigurationError(f"{self.name}: arrival must be >= 0")
        if not 0 < self.availability_target_percent <= 100:
            raise ConfigurationError(
                f"{self.name}: availability target must be in (0, 100]"
            )

    def with_(self, **kw) -> "ServiceSpec":
        """A copy with fields replaced."""
        return replace(self, **kw)


@dataclass(frozen=True)
class FleetSpec:
    """N services plus the shared market and spare pool they live on."""

    services: Tuple[ServiceSpec, ...]
    seed: int = 0
    horizon_s: float = days(30)
    regions: tuple = ALL_REGIONS
    sizes: tuple = SIZES
    #: Warm on-demand spares shared by the whole fleet.
    spare_capacity: int = 4
    #: How long one forced migration occupies a spare (grace + startup +
    #: restore).
    handover_window_s: float = DEFAULT_HANDOVER_WINDOW_S

    def __post_init__(self) -> None:
        if not self.services:
            raise ConfigurationError("fleet needs at least one service")
        names = [s.name for s in self.services]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate service names: {dupes}")
        if self.spare_capacity < 0:
            raise ConfigurationError("spare capacity must be >= 0")
        if self.handover_window_s <= 0:
            raise ConfigurationError("handover window must be positive")
        for svc in self.services:
            a, d = self.active_window(svc)
            if not a < d:
                raise ConfigurationError(
                    f"{svc.name}: active window [{a}, {d}) is empty"
                )
            if d > self.horizon_s:
                raise ConfigurationError(
                    f"{svc.name}: departs at {d} beyond horizon {self.horizon_s}"
                )

    def __len__(self) -> int:
        return len(self.services)

    @property
    def n_markets(self) -> int:
        return len(self.regions) * len(self.sizes)

    def active_window(self, svc: ServiceSpec) -> Tuple[float, float]:
        """``[arrival, departure)`` of one service, departure defaulted to
        the horizon."""
        dep = self.horizon_s if svc.departure_s is None else svc.departure_s
        return (svc.arrival_s, dep)

    def service_by_name(self, name: str) -> ServiceSpec:
        for svc in self.services:
            if svc.name == name:
                return svc
        raise ConfigurationError(f"no service named {name!r} in fleet")

    def run_specs(self) -> Tuple[RunSpec, ...]:
        """One :class:`~repro.runtime.RunSpec` per service, all pinned to
        the shared catalog identity (seed/horizon/regions/sizes)."""
        return tuple(
            RunSpec(
                strategy=svc.strategy,
                bidding=svc.bidding,
                mechanism=svc.mechanism,
                params=svc.params,
                seed=self.seed,
                horizon_s=self.horizon_s,
                regions=tuple(self.regions),
                sizes=tuple(self.sizes),
                startup_cv=svc.startup_cv,
                service_disk_gib=svc.service_disk_gib,
                label=f"fleet/{svc.name}",
            )
            for svc in self.services
        )

    def with_(self, **kw) -> "FleetSpec":
        """A copy with fields replaced."""
        return replace(self, **kw)


# ----------------------------------------------------------------- synthesis
#: Availability-target tiers tenants are drawn from (three/three-and-a-
#: half/four nines).
_TARGET_TIERS = (99.9, 99.95, 99.99)

#: Proactive bid multipliers below the paper's 4x cap that synthesis
#: cycles through.
_BID_KS = (2.5, 3.0, 3.5, 4.0)


def synthesize_fleet(
    n_services: int,
    seed: int = 0,
    horizon_s: float = days(30),
    regions: tuple = ALL_REGIONS,
    sizes: tuple = SIZES,
    churn_per_week: float = 0.0,
    spare_capacity: Optional[int] = None,
    default_spare_quota: int = 1,
    handover_window_s: float = DEFAULT_HANDOVER_WINDOW_S,
) -> FleetSpec:
    """Draw a heterogeneous fleet from one seed, deterministically.

    The initial cohort of ``n_services`` tenants is active for the whole
    horizon; ``churn_per_week`` adds a Poisson stream of mid-horizon
    arrivals (uniform arrival instant, exponential lifetime with mean a
    quarter of the horizon) so the fleet grows and shrinks over time.
    Heterogeneity is drawn per tenant: the strategy family comes from the
    :func:`repro.core.registry.synthesis_cohort` — every registered family
    with a positive ``synthesis_weight``, normalized into a cumulative
    distribution in sorted-kind order — then proactive bid multipliers
    from ``2.5-4.0`` or reactive bidding, mechanism, availability-target
    tier, and spare quota. Registering a new strategy family with a
    weight (see :func:`repro.core.registry.register_strategy`) makes it
    appear in synthesized fleets with no change here.

    ``spare_capacity=None`` sizes the shared pool at 10 % of the initial
    cohort (at least 2) — the derivative-cloud rule of thumb the ext-pool
    experiment motivates.
    """
    if n_services < 1:
        raise ConfigurationError("need at least one service")
    if churn_per_week < 0:
        raise ConfigurationError("churn rate must be >= 0")
    regions = tuple(regions)
    sizes = tuple(sizes)
    markets = tuple(MarketKey(r, s) for r in regions for s in sizes)
    rng = np.random.default_rng(seed)
    if spare_capacity is None:
        spare_capacity = max(2, int(np.ceil(0.10 * n_services)))

    weeks = horizon_s / days(7)
    n_arrivals = int(rng.poisson(churn_per_week * weeks)) if churn_per_week else 0

    services = []
    for i in range(n_services + n_arrivals):
        churned = i >= n_services
        services.append(
            _draw_service(
                rng,
                name=f"svc-{i:04d}",
                markets=markets,
                regions=regions,
                horizon_s=horizon_s,
                churned=churned,
                default_spare_quota=default_spare_quota,
            )
        )
    return FleetSpec(
        services=tuple(services),
        seed=seed,
        horizon_s=horizon_s,
        regions=regions,
        sizes=sizes,
        spare_capacity=int(spare_capacity),
        handover_window_s=handover_window_s,
    )


def _draw_strategy(
    rng: np.random.Generator, market: MarketKey, regions: tuple
) -> StrategySpec:
    """Draw one strategy family from the registry's synthesis cohort.

    The cohort is every registered family with a positive
    ``synthesis_weight``, walked in sorted-kind order so the cumulative
    distribution — and therefore the whole fleet — is a pure function of
    the seed and the registered weight table. Exactly one uniform draw
    selects the family; any further draws belong to the family's own
    ``synthesize`` callable.
    """
    from repro.core.registry import synthesis_cohort

    cohort = synthesis_cohort()
    if not cohort:
        raise ConfigurationError(
            "no registered strategy has a positive synthesis weight"
        )
    total = sum(info.synthesis_weight for info in cohort)
    roll = float(rng.random()) * total
    acc = 0.0
    chosen = cohort[-1]
    for info in cohort:
        acc += info.synthesis_weight
        if roll < acc:
            chosen = info
            break
    spec = chosen.synthesize(rng, market, tuple(regions))
    if not isinstance(spec, StrategySpec):
        raise ConfigurationError(
            f"{chosen.kind}: synthesize must return a StrategySpec, "
            f"got {type(spec).__name__}"
        )
    return spec


def _draw_service(
    rng: np.random.Generator,
    name: str,
    markets: Tuple[MarketKey, ...],
    regions: tuple,
    horizon_s: float,
    churned: bool,
    default_spare_quota: int,
) -> ServiceSpec:
    """One tenant's heterogeneity draws, in a fixed order (determinism)."""
    market = markets[int(rng.integers(len(markets)))]
    strategy = _draw_strategy(rng, market, regions)
    if float(rng.random()) < 0.8:
        bidding: BiddingPolicy = ProactiveBidding(
            k=_BID_KS[int(rng.integers(len(_BID_KS)))]
        )
    else:
        bidding = ReactiveBidding()
    mechanism = (
        Mechanism.CKPT_LR_LIVE if float(rng.random()) < 0.7 else Mechanism.CKPT_LR
    )
    target = _TARGET_TIERS[int(rng.integers(len(_TARGET_TIERS)))]
    quota = default_spare_quota + (1 if float(rng.random()) < 0.2 else 0)
    arrival, departure = 0.0, None
    if churned:
        arrival = float(rng.uniform(0.0, 0.8 * horizon_s))
        lifetime = float(rng.exponential(horizon_s / 4.0))
        lifetime = max(lifetime, horizon_s / 50.0)
        departure = min(horizon_s, arrival + lifetime)
    return ServiceSpec(
        name=name,
        strategy=strategy,
        bidding=bidding,
        mechanism=mechanism,
        availability_target_percent=target,
        spare_quota=quota,
        arrival_s=arrival,
        departure_s=departure,
    )
