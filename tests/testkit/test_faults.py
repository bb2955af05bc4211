"""Unit tests for the fault-injection layer."""

import os
import pickle
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.core.simulation import RunSpec, build_stack, run_simulation
from repro.errors import ConfigurationError
from repro.runtime.spec import StrategySpec
from repro.testkit.builders import make_constant_trace, single_market_catalog
from repro.testkit.faults import FaultPlan, PriceSpike, run_kill_drill
from repro.traces.catalog import MarketKey
from repro.units import days, hours

KEY = MarketKey("us-east-1a", "small")


# ----------------------------------------------------------------- validation
def test_spike_validation():
    with pytest.raises(ConfigurationError):
        PriceSpike(start_s=-1.0, duration_s=10.0)
    with pytest.raises(ConfigurationError):
        PriceSpike(start_s=0.0, duration_s=0.0)
    with pytest.raises(ConfigurationError):
        PriceSpike(start_s=0.0, duration_s=10.0, factor=0.0)


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        FaultPlan(checkpoint_delay_s=-1.0)
    with pytest.raises(ConfigurationError):
        FaultPlan(checkpoint_failure_rate=1.5)
    with pytest.raises(ConfigurationError):
        FaultPlan(disk_copy_factor=0.0)
    with pytest.raises(ConfigurationError):
        FaultPlan(crash_attempts=0)


def test_empty_plan_is_inert():
    plan = FaultPlan()
    assert not plan.is_active
    catalog = single_market_catalog(make_constant_trace(0.02, days(2)))
    assert plan.apply_to_catalog(catalog) is catalog


def test_plan_is_pickleable_and_hashable():
    plan = FaultPlan.revocation_storm(1, days(7), crash_seeds=(3,))
    assert pickle.loads(pickle.dumps(plan)) == plan
    hash(plan)


# ------------------------------------------------------------- catalog overlay
def test_spike_overlay_raises_price_to_factor_times_on_demand():
    catalog = single_market_catalog(make_constant_trace(0.02, days(2)), on_demand_price=0.06)
    plan = FaultPlan.correlated_spike(hours(10), hours(2), factor=5.0)
    spiked = catalog_trace = plan.apply_to_catalog(catalog).trace(KEY)
    assert spiked.price_at(hours(9)) == pytest.approx(0.02)
    assert spiked.price_at(hours(10)) == pytest.approx(0.30)  # 5 x 0.06
    assert spiked.price_at(hours(11.9)) == pytest.approx(0.30)
    assert spiked.price_at(hours(12)) == pytest.approx(0.02)  # right-open window
    assert catalog_trace.horizon == days(2)


def test_overlay_never_lowers_prices():
    trace = make_constant_trace(0.50, days(1))  # base already above the floor
    catalog = single_market_catalog(trace)
    plan = FaultPlan.correlated_spike(hours(2), hours(1), factor=5.0)  # floor 0.30
    out = plan.apply_to_catalog(catalog).trace(KEY)
    assert out.price_at(hours(2.5)) == pytest.approx(0.50)


def test_spike_market_targeting():
    other = MarketKey("us-east-1a", "large")
    traces = {
        KEY: make_constant_trace(0.02, days(1)),
        other: make_constant_trace(0.08, days(1)),
    }
    from repro.testkit.builders import make_catalog

    catalog = make_catalog(traces, {KEY: 0.06, other: 0.24})
    plan = FaultPlan.correlated_spike(hours(3), hours(1), markets=(str(KEY),))
    out = plan.apply_to_catalog(catalog)
    assert out.trace(KEY).price_at(hours(3.5)) == pytest.approx(0.30)
    assert out.trace(other).price_at(hours(3.5)) == pytest.approx(0.08)


def test_on_demand_prices_untouched():
    catalog = single_market_catalog(make_constant_trace(0.02, days(1)), on_demand_price=0.06)
    out = FaultPlan.correlated_spike(0.0, hours(1)).apply_to_catalog(catalog)
    assert out.on_demand_price(KEY) == 0.06


def test_revocation_storm_is_seeded():
    a = FaultPlan.revocation_storm(5, days(7))
    b = FaultPlan.revocation_storm(5, days(7))
    c = FaultPlan.revocation_storm(6, days(7))
    assert a == b
    assert a != c
    assert len(a.spikes) == 6
    assert all(0.0 <= s.start_s and s.end_s <= days(7) for s in a.spikes)


def test_storm_horizon_must_exceed_duration():
    with pytest.raises(ConfigurationError):
        FaultPlan.revocation_storm(1, 100.0, duration_s=200.0)


# ------------------------------------------------------------ provider wrapping
def _stack(plan, seed=3):
    config = RunSpec(
        strategy=StrategySpec.single(KEY),
        seed=seed,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        faults=plan,
    )
    return build_stack(config)


def test_wrap_provider_startup_stretch():
    stretched = _stack(FaultPlan(startup_factor=3.0))
    plain = _stack(FaultPlan())
    # Same RNG stream, so the stretched sample is exactly 3x the plain one.
    a = stretched.provider.startup.sample("spot", "us-east-1a")
    b = plain.provider.startup.sample("spot", "us-east-1a")
    assert a == pytest.approx(3.0 * b)


def test_wrap_provider_disk_copy_factor_reaches_scheduler():
    stack = _stack(FaultPlan(disk_copy_factor=2.5))
    plain = _stack(FaultPlan())
    src = KEY
    dst = MarketKey("us-east-1a", "small")
    assert stack.scheduler._disk_copy_s(src, dst) == pytest.approx(
        2.5 * plain.scheduler._disk_copy_s(src, dst)
    )


def test_checkpoint_faults_counted_and_delay_applied():
    plan = FaultPlan(seed=9, checkpoint_delay_s=30.0, checkpoint_failure_rate=0.5)
    stack = _stack(plan)
    volumes = stack.provider.volumes
    vol = volumes.create("us-east-1a", 10.0)
    volumes.attach(vol.volume_id, "srv-1", "us-east-1a")
    for _ in range(20):
        volumes.write(vol.volume_id, "checkpoint", 1.0, at=100.0)
    stats = stack.provider.fault_stats
    assert stats.checkpoint_writes == 20
    assert stats.checkpoint_delayed == 20  # delay_s > 0 delays every write
    assert stats.checkpoint_failures > 0  # rate 0.5 over 20 writes
    # recorded write time includes the injected delay
    written_at, _ = volumes.read(vol.volume_id, "checkpoint")
    assert written_at >= 130.0


def test_checkpoint_faults_ignore_other_objects():
    plan = FaultPlan(seed=9, checkpoint_delay_s=30.0, checkpoint_failure_rate=1.0)
    stack = _stack(plan)
    volumes = stack.provider.volumes
    vol = volumes.create("us-east-1a", 10.0)
    volumes.attach(vol.volume_id, "srv-1", "us-east-1a")
    volumes.write(vol.volume_id, "root", 1.0, at=50.0)
    assert volumes.read(vol.volume_id, "root") == (50.0, 1.0)
    assert stack.provider.fault_stats.checkpoint_writes == 0


def test_should_crash_schedule():
    plan = FaultPlan(crash_seeds=(7, 9), crash_attempts=2)
    assert plan.should_crash(7, 0)
    assert plan.should_crash(7, 1)
    assert not plan.should_crash(7, 2)
    assert not plan.should_crash(8, 0)


# ------------------------------------------------------------------ end to end
def test_storm_forces_migrations_and_raises_cost():
    base_cfg = RunSpec(
        strategy=StrategySpec.single(KEY),
        seed=3,
        horizon_s=days(7),
        regions=("us-east-1a",),
        sizes=("small",),
    )
    plan = FaultPlan.revocation_storm(11, days(7), n_spikes=5, duration_s=1800.0)
    calm = run_simulation(base_cfg, verify=True)
    stormy = run_simulation(base_cfg.with_(faults=plan), verify=True)
    assert stormy.forced_migrations > calm.forced_migrations
    assert stormy.total_cost != calm.total_cost


def test_faulted_run_is_deterministic():
    cfg = RunSpec(
        strategy=StrategySpec.single(KEY),
        seed=5,
        horizon_s=days(5),
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.revocation_storm(
            21, days(5), checkpoint_delay_s=20.0, checkpoint_failure_rate=0.3
        ),
    )
    assert run_simulation(cfg) == run_simulation(cfg)


# ------------------------------------------------------------------ kill drill
REPO = Path(__file__).parents[2]


def drill_specs():
    """Two runs on separate catalogs, so ``jobs=2`` starts pool workers."""
    spec = RunSpec(
        strategy=StrategySpec.single(KEY),
        horizon_s=days(2),
        regions=(KEY.region,),
        sizes=(KEY.size,),
    )
    return [spec.with_(seed=s) for s in (1, 2)]


def test_kill_drill_reaps_the_orphaned_pool_workers(tmp_path):
    """The orchestrator dies with its pool workers still blocked on their
    call queue; the drill returns only once none of them runs."""
    ledger = tmp_path / "drill.jsonl"
    returncode = run_kill_drill(
        "tests.testkit.test_faults:drill_specs",
        ledger,
        jobs=2,
        kill_after=1,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])},
        timeout=120,
    )
    assert returncode == -signal.SIGKILL
    assert ledger.exists()
