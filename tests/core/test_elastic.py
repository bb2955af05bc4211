"""Tests for the elastic spot fleet and demand curves."""

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider
from repro.core.elastic import DemandCurve, ElasticSpotFleet
from repro.errors import ConfigurationError
from repro.simulator.engine import Engine
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.trace import PriceTrace
from repro.units import SECONDS_PER_DAY, days, hours

A = MarketKey("us-east-1a", "small")
B = MarketKey("us-east-1b", "small")


def build(traces, horizon, demand, lead=hours(2)):
    od = {k: 0.06 for k in traces}
    cat = TraceCatalog(traces, od, horizon)
    provider = CloudProvider(cat, rng=np.random.default_rng(0), startup_cv=0.0)
    fleet = ElasticSpotFleet(
        Engine(), provider, demand, list(traces), horizon=horizon,
        provision_lead_s=lead,
    )
    return fleet, provider


class TestDemandCurve:
    def test_diurnal_bounds(self):
        d = DemandCurve.diurnal(base=4, peak=12)
        samples = [d.at(t) for t in np.linspace(0, 7 * SECONDS_PER_DAY, 2000)]
        assert min(samples) >= 0
        assert max(samples) <= 12
        assert max(samples) >= 11  # actually reaches the peak on weekdays

    def test_peak_hour_is_maximum(self):
        d = DemandCurve.diurnal(base=4, peak=12, peak_hour=20.0)
        assert d.at(hours(20)) == 12
        assert d.at(hours(8)) == 4

    def test_weekend_dip(self):
        d = DemandCurve.diurnal(base=4, peak=12, weekend_factor=0.5)
        weekday_peak = d.at(hours(20))
        saturday_peak = d.at(5 * SECONDS_PER_DAY + hours(20))
        assert saturday_peak < weekday_peak

    def test_mean_units_between_base_and_peak(self):
        d = DemandCurve.diurnal(base=4, peak=12)
        m = d.mean_units(days(14))
        assert 4 < m < 12

    def test_at_clamps_to_zero_and_peak(self):
        """Below 0, inside the range (rounded half to even) and above peak;
        always a plain ``int``."""
        cases = {-3.7: 0, -0.4: 0, 0.0: 0, 2.5: 2, 3.5: 4, 6.49: 6, 12.0: 12, 12.6: 12, 40.0: 12}
        for level, want in cases.items():
            got = DemandCurve(lambda t, v=level: v, peak=12).at(0.0)
            assert got == want and type(got) is int, level
        assert DemandCurve(lambda t: np.float64(7.6), peak=12).at(0.0) == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DemandCurve.diurnal(base=0, peak=12)
        with pytest.raises(ConfigurationError):
            DemandCurve.diurnal(base=8, peak=4)
        with pytest.raises(ConfigurationError):
            DemandCurve(lambda t: 1.0, peak=0)


class TestFleetBehaviour:
    def test_constant_demand_holds_constant_fleet(self):
        horizon = days(2)
        demand = DemandCurve(lambda t: 5.0, peak=5)
        fleet, provider = build(
            {A: PriceTrace.constant(0.02, 0.0, horizon)}, horizon, demand,
        )
        r = fleet.run()
        assert r.scale_ups == 5
        assert r.scale_downs == 0
        assert r.replacements == 0
        # 5 servers * 48h * $0.02, minus nothing much
        assert r.total_cost == pytest.approx(5 * 48 * 0.02, rel=0.05)
        assert r.shortfall_fraction < 0.01  # only the initial boot

    def test_diurnal_demand_scales_both_ways(self):
        horizon = days(3)
        fleet, _ = build(
            {A: PriceTrace.constant(0.02, 0.0, horizon)}, horizon,
            DemandCurve.diurnal(base=2, peak=6),
        )
        r = fleet.run()
        assert r.scale_ups > 6
        assert r.scale_downs > 0

    def test_cheaper_than_both_baselines(self):
        horizon = days(3)
        fleet, _ = build(
            {A: PriceTrace.constant(0.02, 0.0, horizon)}, horizon,
            DemandCurve.diurnal(base=2, peak=6),
        )
        r = fleet.run()
        assert r.vs_peak_percent < 50
        assert r.vs_elastic_od_percent < 60
        assert r.peak_on_demand_cost > r.elastic_on_demand_cost

    def test_revoked_units_replaced(self):
        horizon = days(2)
        spike = PriceTrace(
            np.array([0.0, hours(10), hours(12)]),
            np.array([0.02, 1.00, 0.02]), horizon,
        )
        fleet, provider = build(
            {A: spike, B: PriceTrace.constant(0.03, 0.0, horizon)}, horizon,
            DemandCurve(lambda t: 4.0, peak=4),
        )
        r = fleet.run()
        # all four units sat in the cheaper market A and were all revoked
        assert r.replacements == 4
        # replacements bought in market B kept the shortfall tiny
        assert r.shortfall_fraction < 0.02
        assert provider.active_leases() == []

    def test_no_spot_falls_back_to_on_demand(self):
        horizon = days(1)
        pricey = PriceTrace.constant(0.30, 0.0, horizon)  # above every bid
        fleet, _ = build({A: pricey}, horizon, DemandCurve(lambda t: 2.0, peak=2))
        r = fleet.run()
        assert r.total_cost == pytest.approx(2 * 24 * 0.06, rel=0.1)
        assert r.replacements == 0

    def test_predictive_lead_reduces_shortfall(self):
        horizon = days(3)
        trace = PriceTrace.constant(0.02, 0.0, horizon)
        demand = DemandCurve.diurnal(base=2, peak=8)
        reactive, _ = build({A: trace}, horizon, demand, lead=0.0)
        predictive, _ = build({A: trace}, horizon, demand, lead=hours(2))
        r0 = reactive.run()
        r1 = predictive.run()
        assert r1.shortfall_fraction < 0.5 * r0.shortfall_fraction

    def test_validation(self):
        horizon = days(1)
        trace = PriceTrace.constant(0.02, 0.0, horizon)
        cat = TraceCatalog({A: trace}, {A: 0.06}, horizon)
        provider = CloudProvider(cat, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            ElasticSpotFleet(Engine(), provider, DemandCurve.diurnal(), [],
                             horizon=horizon)
        with pytest.raises(ConfigurationError):
            ElasticSpotFleet(Engine(), provider, DemandCurve.diurnal(), [A],
                             horizon=horizon, provision_lead_s=-1.0)
