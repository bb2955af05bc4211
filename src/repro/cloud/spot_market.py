"""Spot-market semantics: bidding, granting, revocation with grace.

One :class:`SpotMarket` wraps one market's :class:`PriceTrace` and exposes
the queries the scheduler needs:

* is a request at bid ``b`` grantable now (price <= b)?
* when will a server bought at bid ``b`` be revoked (first price > b)?
* what is the provider's bid cap (4x on-demand on EC2 circa 2015)?

Revocation delivers a **warning** followed by a grace window (120 s, the
"two minute warning" Amazon formalised) before forcible termination.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BidRejectedError, BidTooHighError
from repro.traces.trace import PriceTrace

__all__ = ["SpotMarket", "BID_CAP_MULTIPLIER", "REVOCATION_GRACE_S"]

#: "The largest bid price currently allowed by Amazon is four times the
#: on-demand price" (Section 3.1, footnote).
BID_CAP_MULTIPLIER = 4.0

#: The two-minute warning before forcible termination (Section 2.1).
REVOCATION_GRACE_S = 120.0


@dataclass(frozen=True)
class SpotMarket:
    """One (availability zone, size) spot market.

    Attributes
    ----------
    name:
        ``region/size`` label for diagnostics.
    trace:
        The spot-price step function.
    on_demand_price:
        Price of the same configuration as a non-revocable server.
    grace_s:
        Warning-to-termination window on revocation.
    """

    name: str
    trace: PriceTrace
    on_demand_price: float
    grace_s: float = REVOCATION_GRACE_S

    @property
    def bid_cap(self) -> float:
        """Maximum bid the provider accepts."""
        return BID_CAP_MULTIPLIER * self.on_demand_price

    def validate_bid(self, bid: float) -> None:
        """Raise :class:`BidTooHighError` for bids above the provider cap."""
        if bid > self.bid_cap * (1 + 1e-9):
            raise BidTooHighError(bid, self.bid_cap, self.name)

    def price_at(self, t: float) -> float:
        """Spot price in force at scalar time ``t``.

        Goes straight to the compiled plan's list bisect: the scheduler
        asks this at every boundary visit.
        """
        return self.trace.compiled.price_at(t)

    def grantable(self, bid: float, t: float) -> bool:
        """Would a request with this bid be granted at time ``t``?"""
        self.validate_bid(bid)
        return self.price_at(t) <= bid

    def require_grantable(self, bid: float, t: float) -> None:
        """Raise :class:`BidRejectedError` unless the bid clears the price."""
        if not self.grantable(bid, t):
            raise BidRejectedError(bid, self.price_at(t), self.name)

    def next_grant_time(self, bid: float, from_t: float) -> float | None:
        """Earliest time >= ``from_t`` at which a request would be granted.

        ``None`` if the price never returns to or below the bid within the
        trace horizon.
        """
        self.validate_bid(bid)
        return self.trace.first_time_at_or_below(bid, from_t)

    def revocation_warning_time(self, bid: float, from_t: float) -> float | None:
        """First time >= ``from_t`` the price exceeds the bid (warning instant).

        The server is forcibly terminated ``grace_s`` later. ``None`` means
        the bid survives to the trace horizon.
        """
        self.validate_bid(bid)
        return self.trace.first_time_above(bid, from_t)

    def termination_time(self, bid: float, from_t: float) -> float | None:
        """Forcible-termination instant implied by the next revocation."""
        warn = self.revocation_warning_time(bid, from_t)
        if warn is None:
            return None
        return warn + self.grace_s

    # --------------------------------------------------- crossing attribution
    def last_rise_above(self, threshold: float, at: float) -> float | None:
        """Most recent instant <= ``at`` the price rose above ``threshold``.

        Decision tracing uses this to attribute a boundary decision (made a
        lead time before the billing boundary) to the actual price-crossing
        instant that triggered it. ``None`` when the price never rose above
        the threshold by ``at``.
        """
        return self.trace.compiled.last_crossing_above_at_or_before(threshold, at)

    def last_fall_below(self, threshold: float, at: float) -> float | None:
        """Most recent instant <= ``at`` the price fell to/below ``threshold``
        (the reverse-migration trigger), or ``None``."""
        return self.trace.compiled.last_crossing_below_at_or_before(threshold, at)
