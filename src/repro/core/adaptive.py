"""Adaptive bidding: learn the bid from the market's trailing history.

The paper's proactive policy bids a fixed multiple of the on-demand price
(k = 4, the provider's cap). This extension instead runs the
:class:`~repro.analysis.bid_advisor.BidAnalysis` survival analysis over a
trailing window of the market's own price history each time a bid is
needed, and picks the cheapest bid whose *empirical* revocation rate fits a
monthly budget. In a calm market it can bid far below the cap without
losing availability; in a spiky one it converges to the cap — the same
answer the paper hard-codes, now derived from data.

Backward-looking only: the advisor never sees prices after the bidding
instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.analysis.bid_advisor import BidAnalysis
from repro.cloud.spot_market import SpotMarket
from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

__all__ = ["AdaptiveBidding"]


@dataclass
class AdaptiveBidding:
    """Bid from trailing-window survival analysis of the market.

    Attributes
    ----------
    max_revocations_per_month:
        The availability budget handed to the advisor.
    lookback_s:
        Trailing history window (default one week).
    min_history_s:
        Below this much history, fall back to the static cap bid.
    grid_points:
        Bid grid resolution between the on-demand price and the cap.
    reverse_threshold_frac:
        Same return-to-spot hysteresis as the proactive policy.
    refresh_s:
        Recompute at most this often per market (bids are cached per
        time bucket; the advisor sweep is cheap but not free).
    """

    max_revocations_per_month: float = 3.0
    lookback_s: float = 7 * SECONDS_PER_DAY
    min_history_s: float = 1 * SECONDS_PER_DAY
    grid_points: int = 9
    reverse_threshold_frac: float = 0.9
    refresh_s: float = 6 * SECONDS_PER_HOUR
    name: str = "adaptive"
    _cache: Dict[Tuple[str, int], float] = field(default_factory=dict, repr=False)

    #: Not batchable by the vector engine: the bid is recomputed per time
    #: bucket from trailing history, so the revocation threshold (and with
    #: it every crossing table) shifts over a tenure.
    vectorizable = False

    def __post_init__(self) -> None:
        if self.max_revocations_per_month < 0:
            raise ConfigurationError("revocation budget must be >= 0")
        if self.lookback_s <= 0 or self.min_history_s <= 0:
            raise ConfigurationError("windows must be positive")
        if self.grid_points < 2:
            raise ConfigurationError("need at least two grid points")
        if not 0 < self.reverse_threshold_frac <= 1:
            raise ConfigurationError("reverse threshold must be in (0, 1]")
        if self.refresh_s <= 0:
            raise ConfigurationError("refresh period must be positive")

    # ----------------------------------------------------------------- bidding
    def bid_price(self, market: SpotMarket, t: float = 0.0) -> float:
        """The advisor-recommended bid for ``market`` at time ``t``."""
        bucket = int(t // self.refresh_s)
        key = (market.name, bucket)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        bid = self._compute_bid(market, t)
        self._cache[key] = bid
        return bid

    def _compute_bid(self, market: SpotMarket, t: float) -> float:
        trace = market.trace
        w0 = max(trace.start, t - self.lookback_s)
        if t - w0 < self.min_history_s or t > trace.horizon:
            return market.bid_cap  # not enough history: the paper's answer
        window = trace.slice(w0, min(t, trace.horizon))
        advisor = BidAnalysis(window, market.on_demand_price)
        # Grid from just above on-demand to the cap: an adaptive bidder never
        # bids below on-demand (that is the reactive policy's failure mode).
        lo = 1.05 * market.on_demand_price
        hi = market.bid_cap
        step = (hi - lo) / (self.grid_points - 1)
        grid = [lo + i * step for i in range(self.grid_points)]
        rec = advisor.recommend(self.max_revocations_per_month, bids=grid)
        return min(rec.bid, market.bid_cap)

    # ----------------------------------------------------- migration decisions
    def wants_planned_migration(self, spot_price: float, on_demand_price: float) -> bool:
        return spot_price > on_demand_price

    def wants_reverse_migration(self, spot_price: float, on_demand_price: float) -> bool:
        return spot_price <= on_demand_price * self.reverse_threshold_frac

    def explain_bid(self, market: SpotMarket, t: float = 0.0) -> str:
        bid = self.bid_price(market, t)
        return (
            f"survival-advised over trailing {self.lookback_s / SECONDS_PER_HOUR:.0f} h window "
            f"(${bid:.4f} vs on-demand ${market.on_demand_price:.4f})"
        )

    @property
    def is_proactive(self) -> bool:
        return True
