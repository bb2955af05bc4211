"""Behavioural tests of the replicated (hot-standby) scheduler."""

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider, LeaseKind
from repro.core.bidding import ProactiveBidding
from repro.core.replication import ReplicatedScheduler
from repro.errors import SchedulingError
from repro.simulator.engine import Engine
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.trace import PriceTrace
from repro.units import days, hours
from repro.vm.replication import RemusReplication

A = MarketKey("us-east-1a", "small")
B = MarketKey("us-east-1b", "small")
HORIZON = days(2)


def run(trace_a, trace_b, horizon=HORIZON):
    cat = TraceCatalog({A: trace_a, B: trace_b}, {A: 0.06, B: 0.06}, horizon)
    provider = CloudProvider(cat, rng=np.random.default_rng(0), startup_cv=0.0)
    sch = ReplicatedScheduler(
        engine=Engine(), provider=provider, bidding=ProactiveBidding(),
        service_size="small", candidate_keys=[A, B],
        remus=RemusReplication(), horizon=horizon,
    )
    sch.run()
    return sch, provider


def flat(p):
    return PriceTrace.constant(p, 0.0, HORIZON)


def steps(segments):
    return PriceTrace(
        np.array([s[0] for s in segments]), np.array([s[1] for s in segments]), HORIZON
    )


class TestSteadyState:
    def test_pair_runs_both_markets(self):
        sch, provider = run(flat(0.02), flat(0.025))
        assert sch.primary is None and sch.standby is None  # released
        assert provider.active_leases() == []
        # primary in the cheaper market, standby in the other
        spent = {e.market for e in sch.ledger.entries}
        assert spent == {str(A), str(B)}

    def test_cost_is_roughly_two_spot_prices(self):
        sch, _ = run(flat(0.02), flat(0.025))
        assert sch.ledger.total == pytest.approx((0.02 + 0.025) * 48, rel=0.08)

    def test_no_downtime_without_revocations(self):
        sch, _ = run(flat(0.02), flat(0.025))
        assert sch.availability.total_downtime() == 0.0

    def test_unprotected_only_during_initial_sync(self):
        sch, _ = run(flat(0.02), flat(0.025))
        # one spot boot (~281 s) + one initial sync (~60 s)
        assert 0.0 < sch.unprotected_s < 900.0


class TestFailover:
    def test_primary_revocation_fails_over_in_seconds(self):
        # market A jumps past the 4x bid cap at 5h; B stays calm
        sch, _ = run(steps([(0.0, 0.02), (hours(5), 1.00), (hours(7), 0.02)]),
                     flat(0.025))
        assert sch.migration_count("failover") == 1
        fo = [m for m in sch.migrations if m.kind == "failover"][0]
        assert fo.downtime_s < 5.0
        assert fo.source == str(A) and fo.target == str(B)
        assert sch.availability.total_downtime() < 5.0

    def test_planned_failover_on_price_above_od(self):
        # A rises above od (but below bid): planned promotion at a boundary
        sch, _ = run(steps([(0.0, 0.02), (hours(5), 0.10), (hours(9), 0.02)]),
                     flat(0.025))
        assert sch.migration_count("planned-failover") >= 1
        assert sch.migration_count("failover") == 0
        assert sch.availability.total_downtime() < 2.0

    def test_standby_revocation_causes_no_downtime(self):
        sch, _ = run(flat(0.02),
                     steps([(0.0, 0.025), (hours(5), 1.00), (hours(7), 0.025)]))
        assert sch.migration_count("standby-replace") >= 1
        assert sch.availability.total_downtime() == 0.0

    def test_double_revocation_falls_back_to_restore(self):
        # both markets spike past the cap simultaneously: the standby dies
        # with the primary, forcing the unprotected emergency path
        spike = steps([(0.0, 0.02), (hours(5), 1.00), (hours(9), 0.02)])
        sch, _ = run(spike, steps([(0.0, 0.025), (hours(5), 1.00), (hours(9), 0.025)]))
        assert sch.migration_count("unprotected-restore") == 1
        down = sch.availability.total_downtime()
        assert 15.0 < down < 120.0  # lazy restore + startup overlap

    def test_reopt_failover_escapes_expensive_market(self):
        # A is cheap then drifts pricier (still below od); B far cheaper:
        # the two-phase re-optimization promotes B
        sch, _ = run(steps([(0.0, 0.010), (hours(3), 0.045)]), flat(0.012))
        assert sch.migration_count("reopt-failover") >= 1
        reopt = [m for m in sch.migrations if m.kind == "reopt-failover"][0]
        # the service host moves to the cheap market within a few boundaries
        assert reopt.source == str(A) and reopt.target == str(B)
        assert reopt.started_at < hours(5)
        assert reopt.downtime_s < 2.0


class TestValidation:
    def test_empty_candidates_rejected(self):
        cat = TraceCatalog({A: flat(0.02)}, {A: 0.06}, HORIZON)
        provider = CloudProvider(cat, rng=np.random.default_rng(0))
        with pytest.raises(SchedulingError):
            ReplicatedScheduler(
                engine=Engine(), provider=provider, bidding=ProactiveBidding(),
                service_size="small", candidate_keys=[],
                remus=RemusReplication(), horizon=HORIZON,
            )

    def test_size_capacity_filter(self):
        cat = TraceCatalog({A: flat(0.02)}, {A: 0.06}, HORIZON)
        provider = CloudProvider(cat, rng=np.random.default_rng(0))
        with pytest.raises(SchedulingError):
            ReplicatedScheduler(
                engine=Engine(), provider=provider, bidding=ProactiveBidding(),
                service_size="xlarge", candidate_keys=[A],  # small can't host xlarge
                remus=RemusReplication(), horizon=HORIZON,
            )

    def test_window_closed_at_horizon(self):
        sch, _ = run(flat(0.02), flat(0.025))
        assert sch.availability.window_end == HORIZON
