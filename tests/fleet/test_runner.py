"""run_fleet / assemble_report: determinism, proration, oracle wiring."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.runner import assemble_report, run_fleet
from repro.fleet.spec import FleetSpec, ServiceSpec, synthesize_fleet
from repro.runtime import ExecutionOptions
from repro.runtime.spec import StrategySpec
from repro.testkit.oracles import verify_fleet
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def small_fleet(**kw):
    defaults = dict(
        seed=1,
        horizon_s=days(2),
        regions=("us-east-1a", "us-west-1a"),
        sizes=("small",),
        churn_per_week=7.0,
    )
    defaults.update(kw)
    return synthesize_fleet(6, **defaults)


class TestDeterminism:
    def test_byte_identical_across_jobs(self):
        fleet = small_fleet()
        serial = run_fleet(fleet, execution=ExecutionOptions(jobs=1))
        parallel = run_fleet(fleet, execution=ExecutionOptions(jobs=2))
        assert serial.to_json() == parallel.to_json()

    def test_byte_identical_across_engines(self):
        fleet = small_fleet()
        reports = {
            engine: run_fleet(fleet, execution=ExecutionOptions(engine=engine)).to_json()
            for engine in ("event", "auto")
        }
        assert reports["event"] == reports["auto"]

    def test_byte_identical_across_ledger_resume(self, tmp_path):
        fleet = small_fleet()
        ledger = tmp_path / "fleet.ledger"
        first = run_fleet(fleet, execution=ExecutionOptions(ledger=str(ledger)))
        resumed = run_fleet(
            fleet, execution=ExecutionOptions(ledger=str(ledger), resume=True)
        )
        assert first.to_json() == resumed.to_json()


class TestProration:
    def test_churned_twin_costs_its_active_fraction(self):
        # Two identically configured tenants; one is active for half the
        # horizon. Same underlying simulation (shared catalog), so the
        # prorated row is exactly the full row scaled by 0.5.
        h = days(2)
        full = ServiceSpec(name="full", strategy=StrategySpec.single(KEY))
        half = full.with_(name="half", departure_s=h / 2)
        fleet = FleetSpec(
            services=(full, half),
            seed=3,
            horizon_s=h,
            regions=("us-east-1a",),
            sizes=("small",),
        )
        report = run_fleet(fleet)
        r_full, r_half = report.services
        assert r_half.active_fraction == pytest.approx(0.5)
        assert r_half.cost == pytest.approx(0.5 * r_full.cost)
        assert r_half.downtime_s == pytest.approx(0.5 * r_full.downtime_s)
        # Rates are window-invariant under steady-state proration.
        assert r_half.normalized_cost_percent == r_full.normalized_cost_percent
        assert r_half.unavailability_percent == r_full.unavailability_percent
        # Forced migrations outside [arrival, departure) are dropped.
        assert r_half.forced_migrations <= r_full.forced_migrations
        assert report.n_departed == 1

    def test_weight_scales_cost_not_rates(self):
        h = days(2)
        one = ServiceSpec(name="w1", strategy=StrategySpec.single(KEY))
        three = one.with_(name="w3", weight=3.0)
        fleet = FleetSpec(
            services=(one, three),
            seed=3,
            horizon_s=h,
            regions=("us-east-1a",),
            sizes=("small",),
        )
        report = run_fleet(fleet)
        r1, r3 = report.services
        assert r3.cost == pytest.approx(3.0 * r1.cost)
        assert r3.baseline_cost == pytest.approx(3.0 * r1.baseline_cost)
        assert r3.normalized_cost_percent == r1.normalized_cost_percent


class TestReport:
    def test_rollups_and_oracles(self):
        fleet = small_fleet()
        report = run_fleet(fleet, verify=True)  # raises if any oracle fails
        assert report.n_services == len(fleet)
        assert report.n_initial + report.n_arrived == report.n_services
        assert report.total_cost == pytest.approx(
            sum(s.cost for s in report.services)
        )
        assert 0.0 < report.normalized_cost_percent < 100.0
        sp = report.spare_pool
        assert sp.hits + sp.misses == sp.claims
        assert sp.peak_in_use <= sp.capacity

    def test_verify_fleet_cross_checks_results(self):
        fleet = small_fleet()
        from repro.runtime import run_batch

        results = list(run_batch(list(fleet.run_specs())).results)
        report = assemble_report(fleet, results)
        oracle = verify_fleet(fleet, report, results)
        assert oracle.passed, oracle.summary()
        names = {c.name for c in oracle.checks}
        assert "fleet.spare-replay" in names
        assert "spare-pool.capacity" in names

    def test_on_demand_fleet_has_no_forced_migrations(self):
        fleet = FleetSpec(
            services=tuple(
                ServiceSpec(name=f"od-{i}", strategy=StrategySpec.on_demand(KEY))
                for i in range(3)
            ),
            seed=0,
            horizon_s=days(2),
            regions=("us-east-1a",),
            sizes=("small",),
        )
        report = run_fleet(fleet)
        assert report.correlation.total_forced == 0
        assert report.spare_pool.claims == 0
        assert report.spare_pool.hit_rate == 1.0
        # On-demand pays the baseline plus small startup/volume overheads.
        assert report.normalized_cost_percent == pytest.approx(100.0, abs=1.0)

    def test_result_count_mismatch_rejected(self):
        fleet = small_fleet()
        with pytest.raises(ConfigurationError, match="results"):
            assemble_report(fleet, [])

    def test_jobs_validated(self):
        with pytest.raises(ConfigurationError):
            run_fleet(small_fleet(), execution=ExecutionOptions(jobs=0))
