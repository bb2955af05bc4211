"""FleetSpec/ServiceSpec: validation, synthesis determinism, shared keys."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec, ServiceSpec, synthesize_fleet
from repro.runtime.spec import StrategySpec
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def svc(name="svc-a", **kw):
    return ServiceSpec(name=name, strategy=StrategySpec.single(KEY), **kw)


class TestServiceSpec:
    def test_defaults(self):
        s = svc()
        assert s.availability_target_percent == 99.99
        assert s.spare_quota == 1
        assert s.arrival_s == 0.0 and s.departure_s is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            svc(name="")
        with pytest.raises(ConfigurationError):
            svc(spare_quota=-1)
        with pytest.raises(ConfigurationError):
            svc(weight=0.0)
        with pytest.raises(ConfigurationError):
            svc(arrival_s=-1.0)
        with pytest.raises(ConfigurationError):
            svc(availability_target_percent=0.0)

    def test_with_(self):
        assert svc().with_(spare_quota=3).spare_quota == 3


class TestFleetSpec:
    def test_needs_services(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(services=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FleetSpec(services=(svc("a"), svc("a")))

    def test_empty_window_rejected(self):
        bad = svc(arrival_s=100.0, departure_s=100.0)
        with pytest.raises(ConfigurationError, match="empty"):
            FleetSpec(services=(bad,))

    def test_departure_beyond_horizon_rejected(self):
        bad = svc(departure_s=days(30) + 1.0)
        with pytest.raises(ConfigurationError, match="beyond horizon"):
            FleetSpec(services=(bad,), horizon_s=days(30))

    def test_active_window_defaults_to_horizon(self):
        fleet = FleetSpec(services=(svc(),), horizon_s=days(7))
        assert fleet.active_window(fleet.services[0]) == (0.0, days(7))

    def test_n_markets(self):
        fleet = FleetSpec(
            services=(svc(),),
            regions=("us-east-1a", "us-west-1a"),
            sizes=("small", "medium", "large"),
        )
        assert fleet.n_markets == 6

    def test_service_by_name(self):
        fleet = FleetSpec(services=(svc("a"), svc("b")))
        assert fleet.service_by_name("b").name == "b"
        with pytest.raises(ConfigurationError):
            fleet.service_by_name("zzz")

    def test_run_specs_share_the_catalog_identity(self):
        """The shared-market contract: every per-service RunSpec is pinned
        to the fleet's seed/horizon/regions/sizes, so all services resolve
        the identical trace catalog."""
        fleet = synthesize_fleet(8, seed=3, horizon_s=days(2))
        specs = fleet.run_specs()
        assert len(specs) == 8
        keys = {
            (r.seed, r.horizon_s, r.regions, r.sizes) for r in specs
        }
        assert keys == {
            (fleet.seed, fleet.horizon_s, tuple(fleet.regions), tuple(fleet.sizes))
        }
        assert [r.label for r in specs] == [
            f"fleet/{s.name}" for s in fleet.services
        ]

    def test_run_specs_do_not_depend_on_spare_capacity(self):
        """The pool only replays forced migrations after the runs, so one
        batch serves every capacity of a sizing sweep (``ext-fleet``)."""
        fleet = synthesize_fleet(8, seed=3, horizon_s=days(2))
        for capacity in (0, 1, 2, 4, 8):
            assert fleet.with_(spare_capacity=capacity).run_specs() == fleet.run_specs()


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_fleet(20, seed=7, churn_per_week=3.0, horizon_s=days(10))
        b = synthesize_fleet(20, seed=7, churn_per_week=3.0, horizon_s=days(10))
        assert a == b

    def test_seed_changes_the_fleet(self):
        a = synthesize_fleet(20, seed=0, horizon_s=days(10))
        b = synthesize_fleet(20, seed=1, horizon_s=days(10))
        assert a != b

    def test_heterogeneous(self):
        fleet = synthesize_fleet(60, seed=0, horizon_s=days(10))
        kinds = {s.strategy.kind for s in fleet.services}
        assert len(kinds) >= 3
        assert len({s.availability_target_percent for s in fleet.services}) > 1

    def test_static_fleet_has_no_churn(self):
        fleet = synthesize_fleet(10, seed=0, horizon_s=days(10))
        assert len(fleet) == 10
        assert all(s.arrival_s == 0.0 and s.departure_s is None
                   for s in fleet.services)

    def test_churned_services_live_inside_the_horizon(self):
        h = days(10)
        fleet = synthesize_fleet(10, seed=2, horizon_s=h, churn_per_week=7.0)
        arrived = [s for s in fleet.services if s.arrival_s > 0.0]
        assert arrived, "expected mid-horizon arrivals at this churn rate"
        for s in arrived:
            a, d = fleet.active_window(s)
            assert 0.0 < a < d <= h

    def test_spare_capacity_rule_of_thumb(self):
        assert synthesize_fleet(100, horizon_s=days(2)).spare_capacity == 10
        assert synthesize_fleet(3, horizon_s=days(2)).spare_capacity == 2
        assert synthesize_fleet(
            100, horizon_s=days(2), spare_capacity=1
        ).spare_capacity == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            synthesize_fleet(0)
        with pytest.raises(ConfigurationError):
            synthesize_fleet(5, churn_per_week=-1.0)

    def test_specs_are_frozen(self):
        fleet = synthesize_fleet(2, horizon_s=days(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            fleet.seed = 9
