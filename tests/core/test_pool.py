"""Tests for the multi-tenant spot pool and spare sizing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.fleet.spares import concurrent_events
from repro.pool import PoolConfig, SpotPool
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.trace import PriceTrace
from repro.units import days, hours

REGIONS = ("us-east-1a", "us-east-1b")


class TestConcurrency:
    def test_no_events(self):
        assert concurrent_events([], 60.0) == 0

    def test_isolated_events(self):
        assert concurrent_events([0.0, 1000.0, 2000.0], 60.0) == 1

    def test_overlapping_events(self):
        assert concurrent_events([0.0, 10.0, 20.0], 60.0) == 3

    def test_half_open_window(self):
        # second event starts exactly when the first ends: no overlap
        assert concurrent_events([0.0, 60.0], 60.0) == 1

    def test_mixed(self):
        assert concurrent_events([0.0, 30.0, 200.0, 210.0, 1000.0], 60.0) == 2

    def test_invalid_window(self):
        with pytest.raises(SchedulingError):
            concurrent_events([0.0], 0.0)


class TestPoolConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoolConfig(n_services=0)
        with pytest.raises(ConfigurationError):
            PoolConfig(placement="random")

    def test_missing_size_rejected(self):
        key = MarketKey("us-east-1a", "small")
        cat = TraceCatalog(
            {key: PriceTrace.constant(0.02, 0.0, days(1))}, {key: 0.06}, days(1)
        )
        with pytest.raises(ConfigurationError):
            SpotPool(PoolConfig(size="xlarge", catalog=cat, horizon_s=days(1)))


class TestPoolRuns:
    @pytest.fixture(scope="class")
    def shared_world(self):
        """A deterministic 2-market world: market A spikes hard at 5h."""
        horizon = days(2)
        a = MarketKey("us-east-1a", "small")
        b = MarketKey("us-east-1b", "small")
        ta = PriceTrace(
            np.array([0.0, hours(5), hours(7)]), np.array([0.02, 1.00, 0.02]), horizon
        )
        tb = PriceTrace.constant(0.03, 0.0, horizon)
        return TraceCatalog({a: ta, b: tb}, {a: 0.06, b: 0.06}, horizon)

    def test_concentrated_couples_failures(self, shared_world):
        pool = SpotPool(PoolConfig(
            n_services=6, placement="concentrated", catalog=shared_world,
            horizon_s=days(2), regions=REGIONS,
        ))
        r = pool.run()
        # everyone started in cheap market A and was revoked together
        assert r.total_forced == 6
        assert r.spare_servers_needed == 6
        assert r.spare_fraction == 1.0

    def test_diverse_decouples_failures(self, shared_world):
        pool = SpotPool(PoolConfig(
            n_services=6, placement="diverse", catalog=shared_world,
            horizon_s=days(2), regions=REGIONS,
        ))
        r = pool.run()
        # only the 3 tenants in market A are forced
        assert r.total_forced == 3
        assert r.spare_servers_needed == 3
        assert r.spare_fraction == 0.5

    def test_diverse_costs_more_than_concentrated(self, shared_world):
        conc = SpotPool(PoolConfig(
            n_services=6, placement="concentrated", catalog=shared_world,
            horizon_s=days(2), regions=REGIONS,
        )).run()
        div = SpotPool(PoolConfig(
            n_services=6, placement="diverse", catalog=shared_world,
            horizon_s=days(2), regions=REGIONS,
        )).run()
        # diverse pays the pricier market B for half the fleet... but
        # concentrated pays on-demand after the joint revocation; the clean
        # invariant is that both stay far below the all-on-demand baseline
        assert div.normalized_cost_percent < 80
        assert conc.normalized_cost_percent < 80

    def test_pool_result_accessors(self, shared_world):
        r = SpotPool(PoolConfig(
            n_services=4, placement="diverse", catalog=shared_world,
            horizon_s=days(2), regions=REGIONS,
        )).run()
        assert r.n_services == 4
        assert r.total_cost == pytest.approx(sum(s.total_cost for s in r.services))
        assert 0 <= r.mean_unavailability_percent <= r.worst_unavailability_percent
        assert r.duration_hours == pytest.approx(48.0)

    def test_generated_world_pool(self):
        """End-to-end on generated traces: invariants only."""
        r = SpotPool(PoolConfig(
            n_services=8, placement="diverse", seed=5, horizon_s=days(7),
            regions=REGIONS,
        )).run()
        assert r.normalized_cost_percent < 100
        assert r.mean_unavailability_percent < 0.1
        assert 0 <= r.spare_servers_needed <= 8

    def test_determinism(self, shared_world):
        cfg = PoolConfig(n_services=4, placement="diverse", catalog=shared_world,
                         horizon_s=days(2), regions=REGIONS)
        a = SpotPool(cfg).run()
        b = SpotPool(cfg).run()
        assert a.total_cost == b.total_cost
        assert a.spare_servers_needed == b.spare_servers_needed
