"""Related-work policy families built on the strategy registry.

Three hosting strategies the papers around the source reproduction hand
us, each registered with :mod:`repro.core.registry` so the CLIs, spec
layer, fleet synthesizer, and conformance suite pick them up like the
built-ins:

* :class:`IndexTrackingStrategy` — hold a small portfolio (basket) of
  spot markets and rebalance each epoch to track the *on-demand cost
  index* within a tracking-error band (Shastri & Irwin, "Cloud Index
  Tracking", SoCC 2018). Markets whose current spot rate drifts more
  than ``band`` above the index are excluded from candidacy until they
  return, and opportunistic switching chases the cheapest in-band
  member subject to dwell hysteresis.
* :class:`NoFaultToleranceStrategy` — provision spot capacity with *no*
  checkpointing or migration machinery at all (Alourani & Kshemkalyani,
  "Provisioning Spot Instances Without Employing Fault-Tolerance
  Mechanisms"). A revoked service rides the free partial hour, goes
  dark, and recomputes its state from the durable volume when the
  market is re-granted.
* :class:`PortfolioBidStrategy` — per-epoch market selection by solving
  a small linear program over predicted revocation risk vs cost (the
  optimal-placement idiom from the Icarus exemplar), solved exactly in
  NumPy by enumerating the vertices of the two-constraint LP.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cloud.provider import CloudProvider
from repro.core.bidding import BiddingPolicy
from repro.core.registry import ArgSpec, register_strategy
from repro.core.strategies import (
    HostingStrategy,
    PlacementTarget,
    PureSpotStrategy,
    _EXAMPLE_KEY,
    _EXAMPLE_REGIONS,
    _UNITS_ARG,
)
from repro.errors import ConfigurationError
from repro.traces.catalog import MarketKey
from repro.units import SECONDS_PER_HOUR
from repro.vm.memory import MemoryProfile

__all__ = [
    "IndexTrackingStrategy",
    "NoFaultToleranceStrategy",
    "PortfolioBidStrategy",
    "solve_portfolio_lp",
]


# --------------------------------------------------------- cohort synthesis
def _synth_index_tracking(rng, market, regions):
    from repro.runtime.spec import StrategySpec

    band = (0.10, 0.15, 0.20)[int(rng.integers(3))]
    return StrategySpec.index_tracking(tuple(regions), band=band)


def _synth_no_ft(rng, market, regions):
    from repro.runtime.spec import StrategySpec

    return StrategySpec.no_fault_tolerance(market)


def _synth_portfolio_bid(rng, market, regions):
    from repro.runtime.spec import StrategySpec

    cap = (0.02, 0.05, 0.10)[int(rng.integers(3))]
    return StrategySpec.portfolio_bid(tuple(regions), risk_cap=cap)


# ----------------------------------------------------------- index tracking
@register_strategy(
    "index-tracking",
    display_name="Index tracking",
    citation="Shastri & Irwin, 'Cloud Index Tracking: Enabling Predictable "
    "Costs in Cloud Spot Markets' (SoCC 2018)",
    arg_schema=(
        ArgSpec("regions", "regions"),
        _UNITS_ARG,
        ArgSpec("n_markets", "int", required=False, default=3,
                help="basket size (cheapest-on-demand markets)"),
        ArgSpec("band", "float", required=False, default=0.15, cli="band",
                help="tracking-error band above the on-demand index"),
    ),
    example_args=(_EXAMPLE_REGIONS,),
    synthesis_weight=0.05,
    synthesize=_synth_index_tracking,
    summary="spot basket rebalanced each epoch to track the on-demand index",
)
class IndexTrackingStrategy(HostingStrategy):
    """A portfolio of spot markets tracking the on-demand cost index.

    The basket is the ``n_markets`` candidate markets with the cheapest
    fleet-scaled on-demand rate across ``regions`` — a static index, so
    two runs on the same catalog always track the same benchmark. At
    every epoch the strategy only considers basket members whose current
    spot rate is within ``band`` of the index (the tracking-error
    constraint) and opportunistically rebalances onto the cheapest
    in-band member, subject to the usual dwell/hysteresis guards.

    Normalization is against the *index* (the basket's mean on-demand
    rate) rather than the cheapest single market, matching how an index
    tracker reports its cost.
    """

    opportunistic_switching = True
    # The rebalance decision has a closed-form dwell model: within one
    # tenure ``_last_spot_switch`` is constant, the dwell gate is a
    # subtraction-and-compare per boundary, and the in-band ranking is
    # raw ``servers x price`` filtered by the (static) band cap — all
    # exact array ops, so the vector engine reproduces every rebalance
    # decision bit-for-bit rather than over-approximating.
    _vector_decisions = True
    _vector_dwell = True

    def __init__(
        self,
        regions: Sequence[str],
        service_units: int = 8,
        n_markets: int = 3,
        band: float = 0.15,
        rebalance_dwell_s: float = 6 * SECONDS_PER_HOUR,
    ) -> None:
        if not regions:
            raise ConfigurationError("need at least one region")
        if service_units <= 0:
            raise ConfigurationError("service_units must be positive")
        if n_markets < 1:
            raise ConfigurationError("basket needs at least one market")
        if band < 0:
            raise ConfigurationError("tracking band must be >= 0")
        if rebalance_dwell_s <= 0:
            raise ConfigurationError("rebalance dwell must be positive")
        self.regions = tuple(regions)
        self.service_units = service_units
        self.n_markets = n_markets
        self.band = float(band)
        self.min_dwell_s = float(rebalance_dwell_s)

    # ------------------------------------------------------------ the index
    def basket(self, provider: CloudProvider) -> List[MarketKey]:
        """The index basket: the ``n_markets`` cheapest-on-demand markets
        (fleet-scaled) across the allowed regions, in key order."""
        cached = self.__dict__.get("_basket_memo")
        if cached is not None and cached[0] is provider.catalog:
            return cached[1]
        candidates: List[MarketKey] = []
        for region in self.regions:
            candidates.extend(provider.catalog.markets_in_region(region))
        ranked = sorted(
            candidates, key=lambda k: (self.on_demand_rate(provider, k), k)
        )
        basket = sorted(ranked[: self.n_markets])
        self._basket_memo = (provider.catalog, basket)
        return basket

    def index_rate(self, provider: CloudProvider) -> float:
        """The on-demand cost index: mean fleet on-demand rate over the
        basket (USD/hour)."""
        basket = self.basket(provider)
        return float(
            np.mean([self.on_demand_rate(provider, k) for k in basket])
        )

    def band_cap(self, provider: CloudProvider) -> float:
        """The highest spot rate the tracking band admits (USD/hour)."""
        return (1.0 + self.band) * self.index_rate(provider)

    def spot_rate_cap(self, provider: CloudProvider) -> float:
        """The vector engine's candidate filter is the tracking band."""
        return self.band_cap(provider)

    # ---------------------------------------------------- strategy contract
    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        return self.basket(provider)

    def baseline_rate(self, provider: CloudProvider) -> float:
        return self.index_rate(provider)

    def best_spot_target(
        self,
        provider: CloudProvider,
        bidding: BiddingPolicy,
        t: float,
        exclude: Optional[MarketKey] = None,
    ) -> Optional[PlacementTarget]:
        """Cheapest grantable basket member *within the tracking band*."""
        if not self.allows_spot:
            return None
        cap = self.band_cap(provider)
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
            if rate > cap:
                continue  # outside the tracking-error band right now
            if best is None or rate < best.rate:
                best = PlacementTarget(
                    key=key, n_servers=self.servers_needed(key), rate=rate
                )
        return best

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"IndexTracking({','.join(self.regions)}, n={self.n_markets}, "
            f"band={self.band})"
        )


# --------------------------------------------------------- no fault tolerance
@register_strategy(
    "no-ft",
    display_name="No fault tolerance",
    citation="Alourani & Kshemkalyani, 'Provisioning Spot Instances Without "
    "Employing Fault-Tolerance Mechanisms' (arXiv:2003.13846)",
    arg_schema=(
        ArgSpec("key", "market"),
        ArgSpec("recompute_s", "float", required=False, default=600.0,
                help="seconds to rebuild in-memory state after a loss"),
    ),
    example_args=(_EXAMPLE_KEY,),
    synthesis_weight=0.03,
    synthesize=_synth_no_ft,
    summary="no checkpoints: ride free revoked partial hours, recompute on loss",
)
class NoFaultToleranceStrategy(PureSpotStrategy):
    """Spot-only hosting with the fault-tolerance machinery switched off.

    Exploits the 2015 billing rule the paper leans on: a *revoked*
    partial hour is free, so losing a spot server costs nothing in
    dollars — only the recompute time. The scheduler consults
    ``fault_tolerant`` and, for this strategy, skips the checkpoint
    write inside the grace window and replaces the restore on re-grant
    with a flat ``recompute_s`` rebuild from the durable volume.

    Compared to :class:`~repro.core.strategies.PureSpotStrategy` it
    trades longer outages (recompute instead of restore) for zero
    checkpoint overhead; there is still nothing to migrate, so it never
    pays for a revoked partial hour.
    """

    fault_tolerant = False
    # The recompute path only exists in the event engine; keep the
    # vector engine honest by never routing this family to it.
    _vector_decisions = False

    def __init__(self, key: MarketKey, recompute_s: float = 600.0) -> None:
        super().__init__(key)
        if recompute_s < 0:
            raise ConfigurationError("recompute time must be >= 0")
        self.recompute_s = float(recompute_s)

    def migration_memory(self, key: MarketKey) -> MemoryProfile:
        """Nothing is ever checkpointed or migrated: a token profile so
        volume sizing stays well-formed."""
        cache = self.__dict__.setdefault("_memory_memo", {})
        mem = cache.get(key)
        if mem is None:
            mem = cache[key] = MemoryProfile(size_gib=0.001, dirty_rate_mbps=0.0)
        return mem

    def __repr__(self) -> str:  # pragma: no cover
        return f"NoFaultTolerance({self.key}, recompute_s={self.recompute_s})"


# ------------------------------------------------------------ LP portfolio bid
def solve_portfolio_lp(
    costs: Sequence[float],
    risks: Sequence[float],
    risk_cap: float,
) -> Optional[np.ndarray]:
    """Solve ``min c·w  s.t.  Σw = 1,  r·w <= cap,  w >= 0`` exactly.

    Returns the optimal weight vector, or ``None`` when the program is
    infeasible (every market's predicted risk exceeds the cap — mixing
    cannot help since risk is linear in ``w``).

    The LP's vertices are enumerated directly: with one equality and one
    inequality constraint an optimal basic solution has at most two
    nonzero weights — either a single feasible market, or a two-market
    mix pinned to the risk boundary.
    """
    c = np.asarray(costs, dtype=float)
    r = np.asarray(risks, dtype=float)
    if c.ndim != 1 or c.shape != r.shape or c.size == 0:
        raise ConfigurationError("costs and risks must be equal-length 1-D arrays")
    if risk_cap < 0:
        raise ConfigurationError("risk cap must be >= 0")
    return _solve_lp_vertices(c, r, float(risk_cap))


def _solve_lp_vertices(
    c: np.ndarray, r: np.ndarray, cap: float
) -> Optional[np.ndarray]:
    n = c.size
    best_w: Optional[np.ndarray] = None
    best_obj = np.inf
    best_risk = np.inf

    def consider(w: np.ndarray) -> None:
        nonlocal best_w, best_obj, best_risk
        obj = float(c @ w)
        risk = float(r @ w)
        # Strictly-better objective wins; on ties prefer the lower-risk
        # portfolio so cost-equal-but-riskier supports never surface.
        if obj < best_obj - 1e-12 or (
            abs(obj - best_obj) <= 1e-12 and risk < best_risk - 1e-12
        ):
            best_w, best_obj, best_risk = w, obj, risk

    feasible = np.flatnonzero(r <= cap)
    for i in feasible:
        w = np.zeros(n)
        w[i] = 1.0
        consider(w)

    # Two-market vertices sit on the risk boundary: a low-risk anchor
    # mixed with a cheaper-but-riskier market.
    low = np.flatnonzero(r < cap)
    high = np.flatnonzero(r > cap)
    for i in low:
        for j in high:
            a = (r[j] - cap) / (r[j] - r[i])  # weight on the low-risk anchor
            w = np.zeros(n)
            w[i] = a
            w[j] = 1.0 - a
            consider(w)
    return best_w


@register_strategy(
    "portfolio-bid",
    display_name="LP portfolio bid",
    citation="Optimization-based bid/market selection over predicted "
    "revocation risk vs cost (optimal-placement idiom from the Icarus "
    "exemplar; cf. Shastri & Irwin, SoCC 2018)",
    arg_schema=(
        ArgSpec("regions", "regions"),
        _UNITS_ARG,
        ArgSpec("risk_cap", "float", required=False, default=0.05,
                cli="risk_cap", help="max predicted revocation risk per epoch"),
        ArgSpec("lookback_s", "float", required=False,
                default=3 * 24 * SECONDS_PER_HOUR,
                help="trailing window for the risk estimate"),
    ),
    example_args=(_EXAMPLE_REGIONS,),
    synthesis_weight=0.02,
    synthesize=_synth_portfolio_bid,
    summary="per-epoch LP over predicted revocation risk vs spot cost",
)
class PortfolioBidStrategy(HostingStrategy):
    """Per-epoch market selection by a small risk-vs-cost linear program.

    At every decision epoch the strategy estimates each candidate
    market's *revocation risk* — the trailing-window fraction of time
    the price sat above the bidding policy's bid — and solves
    :func:`solve_portfolio_lp` for the cost-minimal portfolio whose
    expected risk stays under ``risk_cap``. The scheduler hosts one
    placement at a time, so the LP's heaviest-weight market is chosen
    (the classic LP-relaxation rounding). When no market is individually
    under the cap the program is infeasible and the strategy falls back
    to the minimum-risk grantable market.
    """

    # The LP re-ranks candidates per epoch, which the vector engine does
    # not model — but it doesn't need to: the epoch grid is scannable
    # with the sound any-candidate over-approximation (stop wherever
    # *some* grantable market beats on-demand), and the scalar LP
    # decides exactly at the boundaries the scan selects.
    _vector_decisions = True
    _vector_exact_od_ranking = False

    def __init__(
        self,
        regions: Sequence[str],
        service_units: int = 8,
        risk_cap: float = 0.05,
        lookback_s: float = 3 * 24 * SECONDS_PER_HOUR,
    ) -> None:
        if not regions:
            raise ConfigurationError("need at least one region")
        if service_units <= 0:
            raise ConfigurationError("service_units must be positive")
        if not 0 <= risk_cap <= 1:
            raise ConfigurationError("risk cap must be in [0, 1]")
        if lookback_s <= 0:
            raise ConfigurationError("lookback must be positive")
        self.regions = tuple(regions)
        self.service_units = service_units
        self.risk_cap = float(risk_cap)
        self.lookback_s = float(lookback_s)

    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        out: List[MarketKey] = []
        for region in self.regions:
            out.extend(provider.catalog.markets_in_region(region))
        return sorted(out)

    def revocation_risk(
        self, provider: CloudProvider, key: MarketKey, bid: float, t: float
    ) -> float:
        """Trailing-window fraction of time ``key``'s price exceeded
        ``bid`` — the empirical estimate of next-epoch revocation risk."""
        trace = provider.catalog.trace(key)
        t0 = max(trace.start, t - self.lookback_s)
        if t - t0 < SECONDS_PER_HOUR:
            return 0.0
        return float(trace.time_above(bid, t0, t) / (t - t0))

    def best_spot_target(
        self,
        provider: CloudProvider,
        bidding: BiddingPolicy,
        t: float,
        exclude: Optional[MarketKey] = None,
    ) -> Optional[PlacementTarget]:
        """The LP's heaviest-weight grantable market at time ``t``."""
        if not self.allows_spot:
            return None
        keys: List[MarketKey] = []
        rates: List[float] = []
        risks: List[float] = []
        for key in self.candidate_markets(provider):
            if exclude is not None and key == exclude:
                continue
            market = provider.market(key)
            bid = bidding.bid_price(market, t)
            market.validate_bid(bid)
            price = market.price_at(t)
            if price > bid:
                continue  # not grantable at this instant
            keys.append(key)
            rates.append(self.spot_rate(key, price))
            risks.append(self.revocation_risk(provider, key, bid, t))
        if not keys:
            return None
        weights = solve_portfolio_lp(rates, risks, self.risk_cap)
        if weights is None:
            # Infeasible: every grantable market is over the cap. Take
            # the least-risky one (then cheapest, then key order).
            i = min(range(len(keys)), key=lambda m: (risks[m], rates[m], keys[m]))
        else:
            i = min(
                range(len(keys)),
                key=lambda m: (-weights[m], rates[m], keys[m]),
            )
        return PlacementTarget(
            key=keys[i], n_servers=self.servers_needed(keys[i]), rate=rates[i]
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"PortfolioBid({','.join(self.regions)}, cap={self.risk_cap})"
