"""Unit tests for the scheduler's timing arithmetic.

The billing-boundary anchoring and planned-migration lead times are the
heart of the proactive policy's cost advantage; these tests pin their
behaviour directly, without running full simulations.
"""

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider
from repro.core.bidding import ProactiveBidding
from repro.core.scheduler import CloudScheduler, _boundary_check_after
from repro.core.strategies import MultiRegionStrategy, SingleMarketStrategy
from repro.cloud.provider import LeaseKind
from repro.simulator.engine import Engine
from repro.testkit.oracles import naive_first_time_above
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.trace import PriceTrace
from repro.units import SECONDS_PER_HOUR, days
from repro.vm.mechanisms import Mechanism, MigrationModel, TYPICAL_PARAMS

SMALL = MarketKey("us-east-1a", "small")
EU_SMALL = MarketKey("eu-west-1a", "small")
XLARGE = MarketKey("us-east-1a", "xlarge")
HORIZON = days(2)


def make_scheduler(keys=(SMALL,), strategy=None):
    traces = {k: PriceTrace.constant(0.02, 0.0, HORIZON) for k in keys}
    od = {SMALL: 0.06, EU_SMALL: 0.0672, XLARGE: 0.48}
    cat = TraceCatalog(traces, {k: od[k] for k in keys}, HORIZON)
    provider = CloudProvider(cat, rng=np.random.default_rng(0), startup_cv=0.0)
    return CloudScheduler(
        engine=Engine(), provider=provider, bidding=ProactiveBidding(),
        strategy=strategy or SingleMarketStrategy(keys[0]),
        migration_model=MigrationModel(Mechanism.CKPT_LR_LIVE, TYPICAL_PARAMS),
        rng=np.random.default_rng(1), horizon=HORIZON,
    )


class TestBoundaryChecks:
    """``_boundary_check_after``: boundaries every hour from the anchor."""

    def test_check_lands_lead_before_each_boundary(self):
        lead = 400.0
        check = _boundary_check_after(anchor=281.47, now=281.47, lead=lead)
        assert check == pytest.approx(281.47 + SECONDS_PER_HOUR - lead)

    def test_check_strictly_in_future(self):
        boundary_minus_lead = SECONDS_PER_HOUR - 400.0
        check = _boundary_check_after(anchor=0.0, now=boundary_minus_lead, lead=400.0)
        assert check > boundary_minus_lead
        assert check == pytest.approx(2 * SECONDS_PER_HOUR - 400.0)

    def test_checks_advance_hourly(self):
        c1 = _boundary_check_after(anchor=100.0, now=100.0, lead=300.0)
        c2 = _boundary_check_after(anchor=100.0, now=c1, lead=300.0)
        assert c2 - c1 == pytest.approx(SECONDS_PER_HOUR)

    def test_anchored_at_ready_not_wall_clock(self):
        check = _boundary_check_after(anchor=1234.5, now=1300.0, lead=200.0)
        assert (check + 200.0 - 1234.5) % SECONDS_PER_HOUR == pytest.approx(
            0.0, abs=1e-6
        )


class TestTenureMemo:
    """``_tenure`` hoists a placement's constants and memoises its warning."""

    def _spot_scheduler(self):
        # Above the proactive bid (0.24) over [5h, 7h) and [20h, 21h).
        trace = PriceTrace(
            np.array([0.0, 5.0, 7.0, 20.0, 21.0]) * SECONDS_PER_HOUR,
            np.array([0.02, 1.00, 0.02, 0.30, 0.02]),
            HORIZON,
        )
        cat = TraceCatalog({SMALL: trace}, {SMALL: 0.06}, HORIZON)
        provider = CloudProvider(cat, rng=np.random.default_rng(0), startup_cv=0.0)
        sch = CloudScheduler(
            engine=Engine(), provider=provider, bidding=ProactiveBidding(),
            strategy=SingleMarketStrategy(SMALL),
            migration_model=MigrationModel(Mechanism.CKPT_LR_LIVE, TYPICAL_PARAMS),
            rng=np.random.default_rng(1), horizon=HORIZON,
        )
        sch.placement = sch._acquire(SMALL, 1, LeaseKind.SPOT, 0.0)
        return sch, trace

    def test_warning_matches_naive_before_at_and_past_the_memo(self):
        sch, trace = self._spot_scheduler()
        first = sch._tenure(0.0)
        assert first.bid == pytest.approx(0.24)
        assert first.anchor == sch.placement.ready_at
        assert first.lead == sch._planned_lead(SMALL)
        for hours in (0.0, 3.0, 5.0, 6.0, 6.5, 8.0, 20.0, 20.5, 22.0, 47.0):
            now = hours * SECONDS_PER_HOUR
            tenure = sch._tenure(now)
            assert tenure is first  # one memo per placement
            assert tenure.warning == naive_first_time_above(trace, tenure.bid, now)

    def test_new_placement_rebuilds_the_memo(self):
        sch, _ = self._spot_scheduler()
        first = sch._tenure(0.0)
        sch.placement = sch._acquire(SMALL, 1, LeaseKind.ON_DEMAND, 0.0)
        second = sch._tenure(0.0)
        assert second is not first
        assert second.bid is None and second.warning is None
        assert second.anchor == sch.placement.ready_at


class TestPlannedLead:
    def test_lead_covers_startup_and_prep(self):
        sch = make_scheduler()
        lead = sch._planned_lead(SMALL)
        # spot startup mean (281) + live precopy (~40) + margin (60)
        assert 330.0 < lead < 900.0

    def test_lead_grows_with_memory(self):
        sch = make_scheduler(keys=(SMALL, XLARGE), strategy=SingleMarketStrategy(XLARGE))
        small_lead = make_scheduler()._planned_lead(SMALL)
        xl_lead = sch._planned_lead(XLARGE)
        assert xl_lead > small_lead  # 12 GiB pre-copies take longer

    def test_cross_region_lead_includes_disk_copy(self):
        strat = MultiRegionStrategy(("us-east-1a", "eu-west-1a"), service_units=1)
        sch = make_scheduler(keys=(SMALL, EU_SMALL), strategy=strat)
        lead = sch._planned_lead(SMALL)
        single = make_scheduler()._planned_lead(SMALL)
        # the 2 GiB WAN disk copy (~280 s to eu-west) must be inside the lead
        assert lead > single + 200.0

    def test_lead_capped_at_half_hour(self):
        strat = MultiRegionStrategy(("us-east-1a", "eu-west-1a"), service_units=1)
        sch = make_scheduler(keys=(SMALL, EU_SMALL), strategy=strat)
        sch.service_disk_gib = 100.0  # absurd disk: the cap must engage
        assert sch._planned_lead(SMALL) == 0.5 * SECONDS_PER_HOUR


class TestLocalOnDemandSelection:
    def test_forced_target_stays_in_source_region(self):
        strat = MultiRegionStrategy(("us-east-1a", "eu-west-1a"), service_units=1)
        sch = make_scheduler(keys=(SMALL, EU_SMALL), strategy=strat)
        # eu-west od (0.0672) is pricier than us-east od (0.06); a forced
        # migration from an eu placement must STILL pick eu on-demand
        best = sch._best_local_on_demand(EU_SMALL)
        assert best.key.region == "eu-west-1a"

    def test_falls_back_to_global_when_no_local(self):
        strat = SingleMarketStrategy(SMALL)
        sch = make_scheduler(keys=(SMALL,), strategy=strat)
        best = sch._best_local_on_demand(EU_SMALL)  # not a candidate region
        assert best.key == SMALL
