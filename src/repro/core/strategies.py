"""Hosting strategies: which markets the scheduler may use and how.

The paper evaluates three scheduler scopes of increasing freedom
(Section 4) plus two baselines (Section 5):

* **single-market** — one size in one AZ, alternating with on-demand of the
  same size (Figs 6, 7, 11);
* **multi-market** — any size within one AZ, packing the service's nested
  VMs onto larger servers when their per-unit price is lower (Fig 8);
* **multi-region** — any size in any allowed AZ; cross-region moves pay
  WAN migration costs (Fig 9);
* **pure-spot** — spot only, no on-demand fallback: cheap but unavailable
  whenever the price exceeds the bid (Fig 11);
* **on-demand-only** — the cost baseline (100 % by construction).

A strategy answers: what markets are candidates, how many servers does the
service need in each, what does a placement cost per hour, and what is the
normalization baseline. ``service_units`` counts small-equivalents: a
single-market strategy hosts one server's worth of its chosen size, the
multi-market strategies host a fleet of small-sized nested VMs that can be
packed 2/4/8-to-a-server up the size ladder.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cloud.instance_types import instance_type
from repro.cloud.provider import CloudProvider
from repro.core.bidding import BiddingPolicy
from repro.core.registry import ArgSpec, register_strategy
from repro.errors import ConfigurationError
from repro.traces.catalog import MarketKey
from repro.units import SECONDS_PER_HOUR
from repro.vm.memory import MemoryProfile

__all__ = [
    "PlacementTarget",
    "HostingStrategy",
    "SingleMarketStrategy",
    "MultiMarketStrategy",
    "MultiRegionStrategy",
    "PureSpotStrategy",
    "OnDemandOnlyStrategy",
    "StabilityAwareStrategy",
]


@dataclass(frozen=True)
class PlacementTarget:
    """A concrete placement option: a market plus the fleet rate there."""

    key: MarketKey
    n_servers: int
    rate: float  #: USD/hour for the whole fleet at current prices

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ConfigurationError("placement needs at least one server")


class HostingStrategy(ABC):
    """Base class: candidate markets plus packing/rate arithmetic."""

    #: Small-equivalent units of capacity the service needs.
    service_units: int = 1
    #: May the scheduler fall back to on-demand servers?
    allows_on_demand: bool = True
    #: May the scheduler use spot servers at all?
    allows_spot: bool = True
    #: Does the service checkpoint/restore its in-memory state? When
    #: False the scheduler skips checkpoint writes and restores: a
    #: revoked service rides the free partial hour, goes dark, and
    #: *recomputes* its state from the durable volume on re-grant
    #: (:class:`~repro.core.policies.NoFaultToleranceStrategy`).
    fault_tolerant: bool = True
    #: Opportunistic spot->spot switching while the current price is still
    #: below on-demand. The paper's multi-market algorithm only changes
    #: market inside the *planned* step (when the price has risen above
    #: on-demand); chasing cent-level differences between calm markets is
    #: an extension, off by default, gated by the two knobs below.
    opportunistic_switching: bool = False
    #: A spot->spot move must beat the current rate by this factor
    #: (hysteresis against churn between near-equal markets).
    improvement_factor: float = 0.75
    #: Minimum seconds between voluntary opportunistic switches.
    min_dwell_s: float = 12 * SECONDS_PER_HOUR
    #: May the vectorized batch engine pre-scan this strategy's boundary
    #: decisions as array operations? Requires that the vector engine's
    #: scan predicates never *under*-approximate the scalar decision at a
    #: boundary: either the decision is a pure function of (prices at
    #: that instant, static rates) with a zero :meth:`rate_adjustment`
    #: (the greedy built-ins), or the family supplies the closed-form
    #: dwell-model hooks below (:meth:`spot_rate_cap`,
    #: :meth:`vector_od_adjustment_floor`, ``_vector_dwell``,
    #: ``_vector_exact_od_ranking``) that let the scans err towards
    #: stopping. Subclasses overriding a decision-affecting hook without
    #: a matching vector model must leave this False.
    _vector_decisions: bool = False
    #: Does the vector engine model this strategy's opportunistic-switch
    #: dwell state in closed form? Requires that
    #: :meth:`best_spot_target` rank candidates by the raw fleet rate
    #: (zero :meth:`rate_adjustment`) filtered only by grantability and
    #: :meth:`spot_rate_cap` — then the dwell gate
    #: ``now - _last_spot_switch >= min_dwell_s`` and the hysteresis
    #: comparison are exact array ops over a tenure's boundary checks
    #: (``_last_spot_switch`` is constant within one tenure).
    _vector_dwell: bool = False
    #: Does :meth:`best_spot_target` rank by exactly ``servers x price``
    #: (optionally capped)? When False the vector engine's on-demand scan
    #: falls back to a sound any-candidate over-approximation: it stops
    #: at every boundary where *some* candidate could win, and the scalar
    #: decision (LP, windowed adjustment, ...) re-evaluates there.
    _vector_exact_od_ranking: bool = True

    @property
    def vectorizable(self) -> bool:
        """True when the vector engine may batch this strategy's epochs.

        Opportunistic switching consults ``_last_spot_switch`` dwell
        state at every boundary; it disables vectorization unless the
        family declares a closed-form dwell model via ``_vector_dwell``.
        """
        return self._vector_decisions and (
            not self.opportunistic_switching or self._vector_dwell
        )

    # ---------------------------------------------------- vector dwell hooks
    def spot_rate_cap(self, provider: CloudProvider) -> Optional[float]:
        """Highest fleet spot rate :meth:`best_spot_target` admits, or
        ``None`` when uncapped. The vector engine masks candidates whose
        rate exceeds the cap out of its scans with the same ``rate >
        cap`` comparison the scalar ranking applies
        (:class:`~repro.core.policies.IndexTrackingStrategy`'s tracking
        band)."""
        return None

    def vector_od_adjustment_floor(
        self, provider: CloudProvider, key: MarketKey, checks: "np.ndarray"
    ) -> Optional["np.ndarray"]:
        """A sound per-check lower bound on :meth:`rate_adjustment`.

        ``None`` (the default) means the adjustment is identically zero.
        Families with a nonzero adjustment return an array ``floor`` with
        ``floor[i] <= rate_adjustment(provider, key, checks[i])`` exactly
        — the vector engine adds it before comparing against the
        on-demand rate, so its scan can only *over*-approximate the
        scalar act set (IEEE addition and multiplication are monotonic).
        """
        return None

    # ----------------------------------------------------------- candidates
    @abstractmethod
    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        """Markets the scheduler may bid in."""

    def servers_needed(self, key: MarketKey) -> int:
        """Servers of ``key``'s size needed to host ``service_units``."""
        cache = self.__dict__.setdefault("_servers_memo", {})
        n = cache.get(key)
        if n is None:
            cap = instance_type(key.size).capacity_units
            n = cache[key] = max(1, math.ceil(self.service_units / cap))
        return n

    # ----------------------------------------------------------------- rates
    def spot_rate(self, key: MarketKey, price: float) -> float:
        """Fleet USD/hour in a spot market at the given price."""
        return self.servers_needed(key) * price

    def on_demand_rate(self, provider: CloudProvider, key: MarketKey) -> float:
        """Fleet USD/hour on on-demand servers of one market's size/zone."""
        return self.servers_needed(key) * provider.on_demand_price(key)

    def rate_adjustment(self, provider: CloudProvider, key: MarketKey, t: float) -> float:
        """Additive penalty applied when ranking spot targets (USD/hour).

        The greedy strategies return 0; :class:`StabilityAwareStrategy`
        penalizes volatile markets (the paper's future-work extension).
        """
        return 0.0

    # --------------------------------------------------------------- targets
    def best_spot_target(
        self,
        provider: CloudProvider,
        bidding: BiddingPolicy,
        t: float,
        exclude: Optional[MarketKey] = None,
    ) -> Optional[PlacementTarget]:
        """Cheapest currently-grantable spot placement, or ``None``.

        A market is usable when the bidding policy's bid would be granted
        right now (price <= bid).
        """
        if not self.allows_spot:
            return None
        best: Optional[PlacementTarget] = None
        for key in self.candidate_markets(provider):
            if exclude is not None and key == exclude:
                continue
            market = provider.market(key)
            bid = bidding.bid_price(market, t)
            market.validate_bid(bid)
            price = market.price_at(t)
            if price > bid:
                continue
            rate = self.spot_rate(key, price)
            ranked = rate + self.rate_adjustment(provider, key, t)
            if best is None or ranked < best.rate:
                best = PlacementTarget(key=key, n_servers=self.servers_needed(key), rate=ranked)
        return best

    def best_on_demand_target(self, provider: CloudProvider) -> Optional[PlacementTarget]:
        """Cheapest on-demand placement across candidate markets."""
        if not self.allows_on_demand:
            return None
        best: Optional[PlacementTarget] = None
        for key in self.candidate_markets(provider):
            rate = self.on_demand_rate(provider, key)
            if best is None or rate < best.rate:
                best = PlacementTarget(key=key, n_servers=self.servers_needed(key), rate=rate)
        return best

    # -------------------------------------------------------------- baseline
    def baseline_rate(self, provider: CloudProvider) -> float:
        """USD/hour of the all-on-demand baseline used for normalization.

        Default: the cheapest on-demand placement among candidates (the
        paper normalizes multi-region runs by "the lowest on-demand cost
        available in the two allowable regions").
        """
        best = None
        for key in self.candidate_markets(provider):
            rate = self.on_demand_rate(provider, key)
            best = rate if best is None else min(best, rate)
        if best is None:
            raise ConfigurationError("strategy has no candidate markets")
        return best

    # -------------------------------------------------------------- migration
    def migration_memory(self, key: MarketKey) -> MemoryProfile:
        """Memory that must move when leaving a placement in ``key``.

        Fleet transfers run in parallel across server pairs, so wall-clock
        migration time is governed by one server's nested memory.
        """
        cache = self.__dict__.setdefault("_memory_memo", {})
        mem = cache.get(key)
        if mem is None:
            mem = cache[key] = MemoryProfile(
                size_gib=instance_type(key.size).nested_memory_gib
            )
        return mem


#: The standard 2-region test grid the registry's example specs live on.
_EXAMPLE_KEY = MarketKey("us-east-1a", "small")
_EXAMPLE_REGIONS = ("us-east-1a", "us-west-1a")

#: Units argument shared by the fleet-of-nested-VMs families.
_UNITS_ARG = ArgSpec(
    "service_units", "int", required=False, default=8, cli="units",
    help="fleet size in small-equivalents",
)


# Cohort-draw callables for :func:`repro.fleet.spec.synthesize_fleet`.
# Each consumes RNG draws in a fixed order (determinism) and imports
# StrategySpec lazily — runtime.spec imports this module, not vice versa.
def _synth_single(rng, market, regions):
    from repro.runtime.spec import StrategySpec

    return StrategySpec.single(market)


def _synth_on_demand(rng, market, regions):
    from repro.runtime.spec import StrategySpec

    return StrategySpec.on_demand(market)


def _synth_multi_market(rng, market, regions):
    from repro.runtime.spec import StrategySpec

    return StrategySpec.multi_market(market.region)


def _synth_multi_region(rng, market, regions):
    from repro.runtime.spec import StrategySpec

    k = min(len(regions), 2)
    idx = sorted(rng.choice(len(regions), size=k, replace=False).tolist())
    return StrategySpec.multi_region(tuple(regions[j] for j in idx))


@register_strategy(
    "single",
    display_name="Single market",
    citation="HPDC 2015 source paper, §4.1 (Figs 6, 7, 11)",
    arg_schema=(ArgSpec("key", "market"),),
    example_args=(_EXAMPLE_KEY,),
    synthesis_weight=0.50,
    synthesize=_synth_single,
    summary="one size in one AZ, alternating with same-size on-demand",
)
class SingleMarketStrategy(HostingStrategy):
    """One size in one AZ, with on-demand fallback of the same size."""

    _vector_decisions = True

    def __init__(self, key: MarketKey) -> None:
        self.key = key
        self.service_units = instance_type(key.size).capacity_units

    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        return [self.key]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SingleMarket({self.key})"


@register_strategy(
    "multi-market",
    display_name="Multi market",
    citation="HPDC 2015 source paper, §4.2 (Fig 8)",
    arg_schema=(ArgSpec("region", "region"), _UNITS_ARG),
    example_args=("us-east-1a",),
    synthesis_weight=0.18,
    synthesize=_synth_multi_market,
    summary="any size within one AZ, packed onto the cheapest per unit",
)
class MultiMarketStrategy(HostingStrategy):
    """All sizes within one AZ, packed onto the cheapest size.

    The fleet packs onto whichever size is currently cheapest per unit
    of capacity."""

    _vector_decisions = True

    def __init__(self, region: str, service_units: int = 8) -> None:
        if service_units <= 0:
            raise ConfigurationError("service_units must be positive")
        self.region = region
        self.service_units = service_units

    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        return provider.catalog.markets_in_region(self.region)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiMarket({self.region}, units={self.service_units})"


@register_strategy(
    "multi-region",
    display_name="Multi region",
    citation="HPDC 2015 source paper, §4.3 (Fig 9)",
    arg_schema=(ArgSpec("regions", "regions"), _UNITS_ARG),
    example_args=(_EXAMPLE_REGIONS,),
    synthesis_weight=0.13,
    synthesize=_synth_multi_region,
    summary="any size in any allowed AZ; cross-region moves pay WAN costs",
)
class MultiRegionStrategy(HostingStrategy):
    """All sizes across several AZs; cross-region moves are allowed."""

    _vector_decisions = True

    def __init__(self, regions: Sequence[str], service_units: int = 8) -> None:
        if not regions:
            raise ConfigurationError("need at least one region")
        if service_units <= 0:
            raise ConfigurationError("service_units must be positive")
        self.regions = tuple(regions)
        self.service_units = service_units

    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        out: List[MarketKey] = []
        for region in self.regions:
            out.extend(provider.catalog.markets_in_region(region))
        return sorted(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiRegion({','.join(self.regions)}, units={self.service_units})"


@register_strategy(
    "pure-spot",
    display_name="Pure spot",
    citation="HPDC 2015 source paper, §5 (Fig 11)",
    arg_schema=(ArgSpec("key", "market"),),
    example_args=(_EXAMPLE_KEY,),
    summary="spot only, no fallback: down whenever price exceeds bid",
)
class PureSpotStrategy(HostingStrategy):
    """Spot only — the Section 5 comparison showing why migration matters.

    When the price exceeds the bid the service is simply down until the
    price returns, the server is re-granted, and the checkpoint restores.
    """

    allows_on_demand = False
    _vector_decisions = True

    def __init__(self, key: MarketKey) -> None:
        self.key = key
        self.service_units = instance_type(key.size).capacity_units

    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        return [self.key]

    def baseline_rate(self, provider: CloudProvider) -> float:
        return self.on_demand_rate(provider, self.key)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PureSpot({self.key})"


@register_strategy(
    "on-demand",
    display_name="On-demand only",
    citation="HPDC 2015 source paper, §5 (cost baseline)",
    arg_schema=(ArgSpec("key", "market"),),
    example_args=(_EXAMPLE_KEY,),
    synthesis_weight=0.09,
    synthesize=_synth_on_demand,
    summary="non-revocable servers only: the 100% cost baseline",
)
class OnDemandOnlyStrategy(HostingStrategy):
    """The cost baseline: on-demand servers only, normalized cost 100 %."""

    allows_spot = False
    _vector_decisions = True

    def __init__(self, key: MarketKey) -> None:
        self.key = key
        self.service_units = instance_type(key.size).capacity_units

    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        return [self.key]

    def __repr__(self) -> str:  # pragma: no cover
        return f"OnDemandOnly({self.key})"


@register_strategy(
    "stability",
    display_name="Stability aware",
    citation="HPDC 2015 source paper, §7 (future work: stability-aware bidding)",
    arg_schema=(
        ArgSpec("regions", "regions"),
        _UNITS_ARG,
        ArgSpec(
            "stability_weight", "float", required=False, default=1.0,
            cli="stability_weight", help="penalty per unit of trailing price std",
        ),
    ),
    example_args=(_EXAMPLE_REGIONS,),
    example_options=(("stability_weight", 2.0),),
    summary="multi-region ranking that penalizes volatile markets",
)
class StabilityAwareStrategy(MultiRegionStrategy):
    """Multi-region bidding that also weighs price *stability*.

    The paper's conclusion proposes "bidding strategies that take spot
    price stability into account" as future work; this extension penalizes
    each market's rate by ``stability_weight`` times the fleet-scaled price
    standard deviation over a trailing window, steering the scheduler away
    from cheap-but-volatile markets (the Fig 9c failure mode).
    """

    # The trailing-window std adjustment re-ranks targets per instant.
    # The vector engine cannot reproduce the ranking exactly, but it does
    # not need to: vector_od_adjustment_floor() gives a sound lower bound
    # on the adjustment from the compiled rolling-std table, so the
    # on-demand scan stops at (a superset of) the acting boundaries and
    # the scalar decision re-evaluates the exact ranking there.
    _vector_decisions = True
    _vector_exact_od_ranking = False

    def __init__(
        self,
        regions: Sequence[str],
        service_units: int = 8,
        stability_weight: float = 1.0,
        lookback_s: float = 3 * 24 * SECONDS_PER_HOUR,
    ) -> None:
        super().__init__(regions, service_units)
        if stability_weight < 0:
            raise ConfigurationError("stability weight must be >= 0")
        if lookback_s <= 0:
            raise ConfigurationError("lookback must be positive")
        self.stability_weight = stability_weight
        self.lookback_s = lookback_s

    def rate_adjustment(self, provider: CloudProvider, key: MarketKey, t: float) -> float:
        trace = provider.catalog.trace(key)
        t0 = max(trace.start, t - self.lookback_s)
        if t - t0 < SECONDS_PER_HOUR:
            return 0.0
        std = trace.price_std(t0, max(t, t0 + SECONDS_PER_HOUR))
        return self.stability_weight * self.servers_needed(key) * std

    def vector_od_adjustment_floor(
        self, provider: CloudProvider, key: MarketKey, checks: np.ndarray
    ) -> np.ndarray:
        """Sound per-check lower bound on :meth:`rate_adjustment`.

        Uses the compiled trace's approximate rolling-std table with a
        slack proportional to the trace's price scale subtracted, so the
        bound stays below the exact windowed std despite the prefix-sum
        form's rounding (see ``CompiledTrace.rolling_std``); windows
        shorter than an hour floor to the scalar's exact 0.
        """
        trace = provider.catalog.trace(key)
        t0 = np.maximum(trace.start, checks - self.lookback_s)
        std = trace.compiled.rolling_std(t0, checks)
        slack = 1e-3 * (1.0 + float(trace.prices.max()))
        floor = (self.stability_weight * self.servers_needed(key)) * np.maximum(
            std - slack, 0.0
        )
        floor[checks - t0 < SECONDS_PER_HOUR] = 0.0
        return floor

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"StabilityAware({','.join(self.regions)}, units={self.service_units}, "
            f"w={self.stability_weight})"
        )
