"""Tests for the adaptive (history-driven) bidding policy."""

import numpy as np
import pytest

from repro.cloud.spot_market import SpotMarket
from repro.core.adaptive import AdaptiveBidding
from repro.core.simulation import RunSpec, run_simulation
from repro.errors import ConfigurationError
from repro.runtime import StrategySpec
from repro.traces.catalog import MarketKey, TraceCatalog, build_catalog
from repro.traces.trace import PriceTrace
from repro.units import days, hours

OD = 0.06


def market(trace):
    return SpotMarket(name="us-east-1a/small", trace=trace, on_demand_price=OD)


def calm_trace(horizon=days(14)):
    return PriceTrace.constant(0.015, 0.0, horizon)


def spiky_trace(horizon=days(14)):
    """A 30-minute spike to 3.5x od every 12 hours: low bids get revoked
    twice a day, far beyond any sane monthly budget."""
    times, prices = [0.0], [0.015]
    t = hours(6)
    while t < horizon - hours(1):
        times += [t, t + hours(0.5)]
        prices += [3.5 * OD, 0.015]
        t += hours(12)
    return PriceTrace(np.array(times), np.array(prices), horizon)


class TestBidSelection:
    def test_calm_market_bids_near_on_demand(self):
        b = AdaptiveBidding(max_revocations_per_month=2.0)
        bid = b.bid_price(market(calm_trace()), t=days(10))
        assert bid == pytest.approx(1.05 * OD)

    def test_spiky_market_bids_above_observed_spikes(self):
        """With 3.5x-od spikes twice a day, every bid below the spikes blows
        the budget: the advisor picks the cheapest bid clearing them."""
        b = AdaptiveBidding(max_revocations_per_month=2.0)
        bid = b.bid_price(market(spiky_trace()), t=days(10))
        assert 3.5 * OD < bid <= 4 * OD

    def test_insufficient_history_falls_back_to_cap(self):
        b = AdaptiveBidding()
        bid = b.bid_price(market(calm_trace()), t=hours(2))
        assert bid == pytest.approx(4 * OD)

    def test_bid_never_exceeds_cap_or_undercuts_on_demand(self):
        b = AdaptiveBidding(max_revocations_per_month=50.0)
        for t in (days(2), days(7), days(12)):
            for tr in (calm_trace(), spiky_trace()):
                bid = b.bid_price(market(tr), t=t)
                assert OD < bid <= 4 * OD + 1e-12

    def test_backward_looking_only(self):
        """Future spikes must not influence the bid chosen now."""
        horizon = days(14)
        future_spikes = PriceTrace(
            np.array([0.0, days(10)]), np.array([0.015, 3.5 * OD]), horizon
        )
        b = AdaptiveBidding(max_revocations_per_month=2.0)
        bid = b.bid_price(market(future_spikes), t=days(8))
        assert bid == pytest.approx(1.05 * OD)  # the past looked calm

    def test_cache_per_time_bucket(self):
        b = AdaptiveBidding(refresh_s=hours(6))
        m = market(calm_trace())
        a = b.bid_price(m, t=days(10))
        a2 = b.bid_price(m, t=days(10) + 60.0)  # same bucket
        assert a == a2
        assert len(b._cache) == 1
        b.bid_price(m, t=days(10) + hours(7))  # next bucket
        assert len(b._cache) == 2

    def test_migration_decisions_match_proactive(self):
        b = AdaptiveBidding()
        assert b.wants_planned_migration(0.07, OD)
        assert not b.wants_planned_migration(0.05, OD)
        assert b.wants_reverse_migration(0.05, OD)
        assert not b.wants_reverse_migration(0.058, OD)
        assert b.is_proactive

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveBidding(max_revocations_per_month=-1)
        with pytest.raises(ConfigurationError):
            AdaptiveBidding(lookback_s=0)
        with pytest.raises(ConfigurationError):
            AdaptiveBidding(grid_points=1)
        with pytest.raises(ConfigurationError):
            AdaptiveBidding(refresh_s=0)


class TestInScheduler:
    def test_full_simulation_runs(self):
        key = MarketKey("us-east-1a", "small")
        r = run_simulation(RunSpec(
            strategy=StrategySpec.single(key),
            bidding=AdaptiveBidding(max_revocations_per_month=2.0),
            seed=5, horizon_s=days(14),
            regions=("us-east-1a",), sizes=("small",),
            label="adaptive",
        ))
        assert r.normalized_cost_percent < 60
        assert r.unavailability_percent < 0.1

    def test_calm_world_low_bid_same_availability(self):
        """In a deterministic calm market the adaptive bidder bids near
        on-demand yet is never revoked — budget met with minimal exposure."""
        key = MarketKey("us-east-1a", "small")
        horizon = days(14)
        cat = TraceCatalog({key: calm_trace(horizon)}, {key: OD}, horizon)
        r = run_simulation(RunSpec(
            strategy=StrategySpec.single(key),
            bidding=AdaptiveBidding(max_revocations_per_month=2.0),
            horizon_s=horizon,
            regions=("us-east-1a",), sizes=("small",), label="adaptive-calm",
        ), catalog=cat)
        assert r.forced_migrations == 0
        assert r.unavailability_percent == 0.0
