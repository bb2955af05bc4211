"""Unit tests for the simulation facade and result aggregation."""

import pytest

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.results import SimulationResult, aggregate
from repro.core.simulation import RunSpec, run_many, run_simulation
from repro.errors import ConfigurationError, SchedulingError
from repro.runtime import StrategySpec
from repro.traces.catalog import MarketKey, build_catalog
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def cfg(**kw):
    base = dict(
        strategy=StrategySpec.single(KEY),
        regions=("us-east-1a",),
        sizes=("small",),
        horizon_s=days(10),
        seed=3,
    )
    base.update(kw)
    return RunSpec(**base)


def test_run_simulation_basic_sanity():
    r = run_simulation(cfg())
    assert 5.0 < r.normalized_cost_percent < 60.0
    assert 0.0 <= r.unavailability_percent < 0.5
    assert r.total_cost > 0
    assert r.duration_hours > 200
    assert r.baseline_cost == pytest.approx(0.06 * r.duration_hours)
    assert r.spot_cost + r.on_demand_cost == pytest.approx(r.total_cost)


def test_same_seed_reproducible():
    a = run_simulation(cfg())
    b = run_simulation(cfg())
    assert a.total_cost == b.total_cost
    assert a.downtime_s == b.downtime_s
    assert a.forced_migrations == b.forced_migrations


def test_different_seed_differs():
    a = run_simulation(cfg(seed=3))
    b = run_simulation(cfg(seed=4))
    assert a.total_cost != b.total_cost


def test_on_demand_baseline_exactly_100():
    r = run_simulation(cfg(strategy=StrategySpec.on_demand(KEY)))
    # partial-hour rounding adds at most one hour over the window
    assert r.normalized_cost_percent == pytest.approx(100.0, abs=1.0)
    assert r.unavailability_percent == 0.0


def test_prebuilt_catalog_reused():
    cat = build_catalog(seed=3, horizon=days(10), regions=("us-east-1a",), sizes=("small",))
    a = run_simulation(cfg(), catalog=cat)
    b = run_simulation(cfg())  # same seed builds the same catalog
    assert a.total_cost == pytest.approx(b.total_cost)


def test_run_many_distinct_seeds():
    rs = run_many(cfg(), seeds=[1, 2, 3])
    assert len(rs) == 3
    assert len({r.total_cost for r in rs}) == 3
    assert [r.seed for r in rs] == [1, 2, 3]


def test_run_many_requires_seeds():
    with pytest.raises(ConfigurationError):
        run_many(cfg(), seeds=[])


def test_horizon_validation():
    with pytest.raises(ConfigurationError):
        cfg(horizon_s=100.0)


def test_label_override():
    r = run_simulation(cfg(label="my-label"))
    assert r.label == "my-label"


def test_with_helper():
    c = cfg()
    c2 = c.with_(seed=99)
    assert c2.seed == 99 and c.seed == 3


def test_result_derived_properties():
    r = run_simulation(cfg())
    assert r.forced_per_hour == pytest.approx(r.forced_migrations / r.duration_hours)
    assert r.availability_percent == pytest.approx(100.0 - r.unavailability_percent)
    assert r.savings_percent == pytest.approx(100.0 - r.normalized_cost_percent)
    assert sum(r.downtime_by_cause.values()) == pytest.approx(r.downtime_s)


class TestAggregate:
    def test_aggregate_means(self):
        rs = run_many(cfg(label="x"), seeds=[1, 2, 3])
        a = aggregate(rs)
        assert a.n_runs == 3
        assert a.label == "x"
        assert a.normalized_cost_percent == pytest.approx(
            sum(r.normalized_cost_percent for r in rs) / 3
        )
        assert a.unavailability_std >= 0

    def test_aggregate_empty_raises(self):
        with pytest.raises(SchedulingError):
            aggregate([])

    def test_aggregate_mixed_labels_raises(self):
        rs = run_many(cfg(label="x"), seeds=[1]) + run_many(cfg(label="y"), seeds=[1])
        with pytest.raises(SchedulingError):
            aggregate(rs)
        # but an explicit label overrides
        a = aggregate(rs, label="combined")
        assert a.label == "combined"

    def test_row_shape(self):
        rs = run_many(cfg(label="x"), seeds=[1])
        assert len(aggregate(rs).row()) == 5


def test_proactive_beats_reactive_on_same_sample():
    """Policy comparison on the *same* trace sample (shared catalog)."""
    cat = build_catalog(seed=8, horizon=days(30), regions=("us-east-1a",), sizes=("small",))
    pro = run_simulation(cfg(bidding=ProactiveBidding(), horizon_s=days(30)), catalog=cat)
    rea = run_simulation(cfg(bidding=ReactiveBidding(), horizon_s=days(30)), catalog=cat)
    assert pro.unavailability_percent < rea.unavailability_percent
    assert pro.forced_migrations < rea.forced_migrations
