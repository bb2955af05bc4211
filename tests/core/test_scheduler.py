"""Behavioural tests of the cloud scheduler on hand-crafted traces.

Startup jitter is disabled (cv=0) so every scenario is deterministic:
on-demand servers become ready 94.85 s after request, spot servers after
281.47 s (the us-east Table 1 means).
"""

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider, LeaseKind
from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.scheduler import CloudScheduler
from repro.core.strategies import (
    MultiMarketStrategy,
    OnDemandOnlyStrategy,
    PureSpotStrategy,
    SingleMarketStrategy,
)
from repro.simulator.engine import Engine
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.trace import PriceTrace
from repro.units import days, hours
from repro.vm.mechanisms import Mechanism, MigrationModel, TYPICAL_PARAMS

SMALL = MarketKey("us-east-1a", "small")
MEDIUM = MarketKey("us-east-1a", "medium")
OD_SMALL = 0.06
HORIZON = days(2)


def catalog(traces: dict) -> TraceCatalog:
    od = {SMALL: OD_SMALL, MEDIUM: 0.12}
    return TraceCatalog(traces, {k: od[k] for k in traces}, HORIZON)


def trace(segments):
    times = [s[0] for s in segments]
    prices = [s[1] for s in segments]
    return PriceTrace(np.array(times), np.array(prices), HORIZON)


def run_scheduler(cat, strategy, bidding, mechanism=Mechanism.CKPT_LR_LIVE):
    provider = CloudProvider(cat, rng=np.random.default_rng(0), startup_cv=0.0)
    engine = Engine()
    sch = CloudScheduler(
        engine=engine,
        provider=provider,
        bidding=bidding,
        strategy=strategy,
        migration_model=MigrationModel(mechanism, TYPICAL_PARAMS),
        rng=np.random.default_rng(1),
        horizon=HORIZON,
    )
    sch.run()
    return sch


class TestSteadyState:
    def test_flat_cheap_market_stays_on_spot(self):
        cat = catalog({SMALL: trace([(0.0, 0.02)])})
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.migrations == []
        assert sch.availability.total_downtime() == 0.0
        assert sch.placement is None  # released at horizon
        # spot the whole time at 0.02: cost ~ 0.02 * 48h (minus startup partial)
        assert sch.ledger.total == pytest.approx(0.02 * 48, rel=0.05)
        assert sch.ledger.total_by_kind("on_demand") == 0.0

    def test_availability_window_opens_at_first_ready(self):
        cat = catalog({SMALL: trace([(0.0, 0.02)])})
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.availability.window_start == pytest.approx(281.47, abs=1.0)
        assert sch.availability.window_end == HORIZON

    def test_on_demand_only_costs_100_percent(self):
        cat = catalog({SMALL: trace([(0.0, 0.02)])})
        sch = run_scheduler(cat, OnDemandOnlyStrategy(SMALL), ProactiveBidding())
        assert sch.migrations == []
        hours_billed = sch.ledger.hours_billed()
        assert sch.ledger.total == pytest.approx(hours_billed * OD_SMALL)
        assert sch.ledger.total_by_kind("spot") == 0.0

    def test_expensive_spot_starts_on_demand(self):
        cat = catalog({SMALL: trace([(0.0, 0.09)])})  # above od forever
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.ledger.total_by_kind("spot") == 0.0
        assert sch.migrations == []  # 0.09 > 0.9*od: reverse never tempts


class TestProactivePlannedPath:
    """A mid-hour spike above on-demand but below the 4x bid."""

    CAT = None

    def setup_method(self):
        self.cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)])}
        )

    def test_planned_then_reverse(self):
        sch = run_scheduler(self.cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.migration_count("forced") == 0
        assert sch.migration_count("planned") == 1
        assert sch.migration_count("reverse") == 1

    def test_downtime_virtually_eliminated(self):
        sch = run_scheduler(self.cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        # two live migrations, each with a sub-second blackout
        assert sch.availability.total_downtime() < 3.0

    def test_planned_uses_checkpoint_downtime_without_live(self):
        sch = run_scheduler(
            self.cat, SingleMarketStrategy(SMALL), ProactiveBidding(),
            mechanism=Mechanism.CKPT_LR,
        )
        down = sch.availability.total_downtime()
        assert 2.0 < down < 30.0  # two pre-staged checkpoint blackouts

    def test_rides_out_spike_between_boundaries(self):
        """A blip fully inside one billing hour triggers nothing proactive."""
        blip = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5.2), 0.10), (hours(5.4), 0.02)])}
        )
        sch = run_scheduler(blip, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.migrations == []
        assert sch.availability.total_downtime() == 0.0

    def test_reactive_same_trace_gets_revoked(self):
        sch = run_scheduler(self.cat, SingleMarketStrategy(SMALL), ReactiveBidding())
        assert sch.migration_count("forced") == 1
        assert sch.migration_count("planned") == 0
        assert sch.migration_count("reverse") == 1
        # lazy-restore forced blackout: ~ final increment + 20 s resume
        assert 18.0 < sch.availability.total_downtime() < 45.0

    def test_reactive_blip_also_revokes(self):
        """The same blip that proactive rides out forces reactive off spot."""
        blip = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5.2), 0.10), (hours(5.4), 0.02)])}
        )
        sch = run_scheduler(blip, SingleMarketStrategy(SMALL), ReactiveBidding())
        assert sch.migration_count("forced") == 1

    def test_revoked_partial_hour_not_billed(self):
        sch = run_scheduler(self.cat, SingleMarketStrategy(SMALL), ReactiveBidding())
        free = [e for e in sch.ledger.entries if e.note == "revoked-free"]
        assert len(free) == 1
        assert free[0].amount == 0.0


class TestForcedPath:
    def test_sharp_spike_forces_proactive(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 1.00), (hours(7), 0.02)])}
        )
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.migration_count("forced") == 1
        assert sch.migration_count("reverse") == 1
        forced = [m for m in sch.migrations if m.kind == "forced"][0]
        assert forced.started_at == pytest.approx(hours(5))
        assert forced.downtime_s > 5.0

    def test_forced_migration_lands_on_on_demand(self):
        cat = catalog({SMALL: trace([(0.0, 0.02), (hours(5), 1.00)])})
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        # price stays above od: no reverse, service on-demand to the end
        assert sch.migration_count("forced") == 1
        assert sch.migration_count("reverse") == 0
        assert sch.ledger.total_by_kind("on_demand") > 0.06 * 40  # ~43 od hours

    def test_spike_during_planned_migration_converts_to_forced(self):
        """The price crosses on-demand (planned starts) then jumps past the
        bid before the planned suspend: the platform wins the race."""
        cat = catalog(
            {
                SMALL: trace(
                    # crosses od shortly before a billing boundary, then jumps
                    # past 4x od 30 s after the boundary decision
                    [(0.0, 0.02), (hours(5.85), 0.10), (hours(5.9), 1.00),
                     (hours(7), 0.02)]
                )
            }
        )
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.migration_count("forced") == 1
        assert sch.migration_count("planned") == 0


class TestPureSpot:
    def test_outage_until_price_returns(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(9), 0.02)])}
        )
        sch = run_scheduler(cat, PureSpotStrategy(SMALL), ReactiveBidding())
        assert sch.migration_count("outage") == 1
        # dark from suspend (~5h+grace) to re-grant (9h) + spot boot + restore
        down = sch.availability.total_downtime()
        assert hours(3.9) < down < hours(4.3)
        assert sch.ledger.total_by_kind("on_demand") == 0.0

    def test_outage_to_horizon_when_price_never_returns(self):
        cat = catalog({SMALL: trace([(0.0, 0.02), (hours(5), 0.10)])})
        sch = run_scheduler(cat, PureSpotStrategy(SMALL), ReactiveBidding())
        down = sch.availability.total_downtime()
        assert down == pytest.approx(HORIZON - hours(5) - 120.0, rel=0.01)

    def test_cheaper_than_migrating_scheduler(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(9), 0.02)])}
        )
        pure = run_scheduler(cat, PureSpotStrategy(SMALL), ReactiveBidding())
        ours = run_scheduler(cat, SingleMarketStrategy(SMALL), ReactiveBidding())
        assert pure.ledger.total <= ours.ledger.total


class TestMultiMarket:
    def test_planned_moves_to_cheaper_sibling_spot(self):
        cat = catalog(
            {
                SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)]),
                MEDIUM: trace([(0.0, 0.03)]),
            }
        )
        sch = run_scheduler(
            cat, MultiMarketStrategy("us-east-1a", service_units=1), ProactiveBidding()
        )
        assert sch.migration_count("planned") == 1
        planned = [m for m in sch.migrations if m.kind == "planned"][0]
        assert planned.target == str(MEDIUM)
        # opportunistic switching is off: the fleet stays in medium after
        assert sch.migration_count("spot-switch") == 0
        assert sch.ledger.total_by_kind("on_demand") == 0.0

    def test_opportunistic_switching_extension(self):
        cat = catalog(
            {
                SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)]),
                MEDIUM: trace([(0.0, 0.03)]),
            }
        )
        strat = MultiMarketStrategy("us-east-1a", service_units=1)
        strat.opportunistic_switching = True
        strat.min_dwell_s = hours(2)
        sch = run_scheduler(cat, strat, ProactiveBidding())
        # after the spike ends, small (0.02) beats medium (0.03) by > 25 %
        assert sch.migration_count("spot-switch") >= 1

    def test_fleet_packs_multiple_servers(self):
        cat = catalog(
            {
                SMALL: trace([(0.0, 0.02)]),
                MEDIUM: trace([(0.0, 0.05)]),
            }
        )
        strat = MultiMarketStrategy("us-east-1a", service_units=4)
        sch = run_scheduler(cat, strat, ProactiveBidding())
        # 4 small servers at 0.02: ~48h * 4 * 0.02
        assert sch.ledger.total == pytest.approx(4 * 0.02 * 48, rel=0.06)


class TestReverseAbort:
    def test_reverse_aborts_when_target_spikes_back(self):
        cat = catalog(
            {
                SMALL: trace(
                    [
                        (0.0, 0.02),
                        (hours(5), 0.10),  # reactive revoked here
                        (31900.0, 0.02),  # brief dip covering a reverse check
                        (32200.0, 0.30),  # ...that ends before the reverse lands
                        (hours(14), 0.02),
                    ]
                )
            }
        )
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ReactiveBidding())
        assert sch.migration_count("aborted-reverse") >= 1
        aborted = [m for m in sch.migrations if m.kind == "aborted-reverse"][0]
        assert aborted.downtime_s == 0.0
        # eventually reverses for real once the market calms
        assert sch.migration_count("reverse") == 1


class TestLifecycle:
    def test_all_leases_released_at_horizon(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)])}
        )
        provider = CloudProvider(cat, rng=np.random.default_rng(0), startup_cv=0.0)
        engine = Engine()
        sch = CloudScheduler(
            engine=engine, provider=provider, bidding=ProactiveBidding(),
            strategy=SingleMarketStrategy(SMALL),
            migration_model=MigrationModel(Mechanism.CKPT_LR_LIVE, TYPICAL_PARAMS),
            rng=np.random.default_rng(1), horizon=HORIZON,
        )
        sch.run()
        assert provider.active_leases() == []
        assert sch.availability.window_end == HORIZON

    def test_deterministic_given_seeds(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)])}
        )
        a = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        b = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert a.ledger.total == b.ledger.total
        assert a.availability.total_downtime() == b.availability.total_downtime()
        assert [m.kind for m in a.migrations] == [m.kind for m in b.migrations]

    def test_spike_at_horizon_handled_cleanly(self):
        cat = catalog({SMALL: trace([(0.0, 0.02), (hours(47.5), 1.00)])})
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        assert sch.availability.window_end == HORIZON
        # downtime (if the forced resume spills past the horizon) is clipped
        for iv in sch.availability.downtime:
            assert iv.end <= HORIZON

    def test_migration_rates_accessors(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)])}
        )
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ReactiveBidding())
        assert sch.migrations_per_hour("forced") == pytest.approx(
            1.0 / (sch.availability.window_duration / 3600.0)
        )
        assert sch.migration_count("forced", "reverse") == 2

    def test_double_start_rejected(self):
        from repro.errors import SchedulingError
        cat = catalog({SMALL: trace([(0.0, 0.02)])})
        provider = CloudProvider(cat, rng=np.random.default_rng(0), startup_cv=0.0)
        sch = CloudScheduler(
            engine=Engine(), provider=provider, bidding=ProactiveBidding(),
            strategy=SingleMarketStrategy(SMALL),
            migration_model=MigrationModel(Mechanism.CKPT_LR_LIVE, TYPICAL_PARAMS),
            rng=np.random.default_rng(1), horizon=HORIZON,
        )
        sch.start()
        with pytest.raises(SchedulingError):
            sch.start()


class TestPlacementTimeline:
    def test_timeline_covers_run_and_orders(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)])}
        )
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        log = sch.placement_log
        assert len(log) == 3  # spot -> on-demand -> spot
        assert [r.kind for r in log] == ["spot", "on_demand", "spot"]
        for a, b in zip(log, log[1:]):
            assert a.end <= b.start + 1e-9
        assert log[-1].end == HORIZON

    def test_spot_time_fraction_dominates(self):
        cat = catalog(
            {SMALL: trace([(0.0, 0.02), (hours(5), 0.10), (hours(7), 0.02)])}
        )
        sch = run_scheduler(cat, SingleMarketStrategy(SMALL), ProactiveBidding())
        # on-demand tenure is roughly the 2-hour excursion out of ~48h
        assert 0.90 < sch.spot_time_fraction() < 0.99

    def test_on_demand_only_fraction_zero(self):
        cat = catalog({SMALL: trace([(0.0, 0.02)])})
        sch = run_scheduler(cat, OnDemandOnlyStrategy(SMALL), ProactiveBidding())
        assert sch.spot_time_fraction() == 0.0
        assert all(r.kind == "on_demand" for r in sch.placement_log)

    def test_result_carries_fraction(self):
        from repro.core.simulation import RunSpec, run_simulation
        from repro.runtime import StrategySpec
        from repro.units import days as _days
        r = run_simulation(RunSpec(
            strategy=StrategySpec.single(SMALL),
            regions=("us-east-1a",), sizes=("small",),
            horizon_s=_days(7), seed=3,
        ))
        assert 0.5 < r.spot_time_fraction <= 1.0
