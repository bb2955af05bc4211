"""Behavioural tests of the replicated (hot-standby) scheduler.

Every pair is set up the one way every run is: a ``remus-pair``
:class:`~repro.runtime.StrategySpec` in a :class:`RunSpec`, handed to
:func:`~repro.core.simulation.build_stack`, which picks the
:class:`ReplicatedScheduler`.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.replication import RemusPairStrategy, ReplicatedScheduler
from repro.core.simulation import build_stack, summarize_stack
from repro.errors import SchedulingError
from repro.runtime import RunSpec, StrategySpec, run_batch
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.trace import PriceTrace
from repro.units import days, hours

A = MarketKey("us-east-1a", "small")
B = MarketKey("us-east-1b", "small")
PAIR = (A.region, B.region)
HORIZON = days(2)


def pair_spec(regions=PAIR, **kw) -> RunSpec:
    return RunSpec(
        strategy=StrategySpec.of("remus-pair", regions, **kw),
        horizon_s=HORIZON,
        regions=regions,
        startup_cv=0.0,
    )


def build(catalog, regions=PAIR, **kw):
    return build_stack(pair_spec(regions, **kw), catalog=catalog)


def run(trace_a, trace_b):
    cat = TraceCatalog({A: trace_a, B: trace_b}, {A: 0.06, B: 0.06}, HORIZON)
    stack = build(cat)
    assert isinstance(stack.scheduler, ReplicatedScheduler)
    stack.scheduler.run()
    return stack.scheduler, stack.provider


def flat(p):
    return PriceTrace.constant(p, 0.0, HORIZON)


def steps(segments):
    return PriceTrace(
        np.array([s[0] for s in segments]), np.array([s[1] for s in segments]), HORIZON
    )


class TestSteadyState:
    def test_pair_runs_both_markets(self):
        sch, provider = run(flat(0.02), flat(0.025))
        assert sch.placement is None and sch.standby is None  # released
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

    def test_calm_all_spot_pair_reports_its_spot_time(self):
        cat = TraceCatalog({A: flat(0.02), B: flat(0.025)}, {A: 0.06, B: 0.06}, HORIZON)
        stack = build(cat)
        stack.scheduler.run()
        result = summarize_stack(stack)
        assert result.spot_time_fraction > 0.99
        assert stack.scheduler.placement_log  # the primary's tenures


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
        with pytest.raises(SchedulingError):
            build(cat, regions=("us-west-1a",))  # no market of the catalog

    def test_size_capacity_filter(self):
        cat = TraceCatalog({A: flat(0.02)}, {A: 0.06}, HORIZON)
        with pytest.raises(SchedulingError):
            build(cat, regions=(A.region,), service_units=8)  # small can't host xlarge

    def test_window_closed_at_horizon(self):
        sch, _ = run(flat(0.02), flat(0.025))
        assert sch.availability.window_end == HORIZON

    def test_repr_is_deterministic(self):
        strategy = StrategySpec.of("remus-pair", PAIR, service_units=2).build()
        assert isinstance(strategy, RemusPairStrategy)
        assert repr(strategy) == "RemusPair(us-east-1a,us-east-1b, units=2)"
        assert not strategy.vectorizable


class TestBatch:
    SPECS = [
        RunSpec(strategy=StrategySpec.of("remus-pair", PAIR), seed=seed,
                horizon_s=days(3), regions=PAIR)
        for seed in (11, 23, 37)
    ]

    def test_same_results_at_any_jobs_engine_and_after_resume(self, tmp_path):
        serial = run_batch(self.SPECS, engine="event")
        want = [repr(r) for r in serial.results]
        assert all("RemusPair(" in r.label for r in serial.results)
        for jobs in (1, 2):
            for engine in ("auto", "event"):
                batch = run_batch(self.SPECS, jobs=jobs, engine=engine)
                assert [repr(r) for r in batch.results] == want, (jobs, engine)
                assert {t.engine_kind for t in batch.run_telemetry} == {"event"}
        ledger = tmp_path / "remus.jsonl"
        run_batch(self.SPECS, jobs=2, ledger=ledger)
        resumed = run_batch(self.SPECS, ledger=ledger, resume=True)
        assert [repr(r) for r in resumed.results] == want
        assert resumed.telemetry.replayed_runs == len(self.SPECS)


class TestReplicationLink:
    """A standby syncs over the primary-to-standby link, and only where
    that link can carry Remus."""

    @staticmethod
    def _pair(regions):
        first, second = (MarketKey(r, "small") for r in regions)
        cat = TraceCatalog(
            {first: flat(0.02), second: flat(0.025)}, {first: 0.06, second: 0.06}, HORIZON
        )
        stack = build(cat, regions=regions)
        stack.scheduler.start()
        stack.engine.run(until=hours(2))
        return stack

    def test_cross_geo_standby_syncs_over_the_wan_link(self):
        sch = self._pair(("us-east-1a", "us-west-1a")).scheduler
        assert sch.placement.key == MarketKey("us-east-1a", "small")
        assert sch.standby.key == MarketKey("us-west-1a", "small")
        # 80.6 s over the 245 Mbit/s us-east/us-west link (a LAN sync: 58.4 s)
        sync = sch.standby.protected_from - sch.standby.lease.ready_at
        assert sync == pytest.approx(80.57, abs=0.01)

    def test_no_standby_across_a_link_remus_cannot_sustain(self):
        """us-west/eu-west's 127 Mbit/s cannot carry the 100 Mbit/s dirty
        rate with Remus's 1.5x headroom: the pair runs unprotected."""
        stack = self._pair(("us-west-1a", "eu-west-1a"))
        assert stack.scheduler.placement.key == MarketKey("us-west-1a", "small")
        assert stack.scheduler.standby is None
        stack.engine.run(until=HORIZON + 1.0)
        assert {e.market for e in stack.scheduler.ledger.entries} == {"us-west-1a/small"}


class TestResultCounters:
    def test_failovers_count_as_forced_and_planned_moves(self):
        """The pair's failovers reach the result's migration counters (and
        forced_times), which the metrics oracle checks against the
        per-kind counters."""
        from repro.testkit.oracles import verify_stack

        regions = ("us-east-1a", "us-east-1b")
        spec = RunSpec(strategy=StrategySpec.of("remus-pair", regions), seed=23,
                       horizon_s=days(10), regions=regions)
        stack = build_stack(spec)
        stack.scheduler.run()
        result = summarize_stack(stack)
        counts = {k: stack.scheduler.migration_count(k) for k in (
            "failover", "unprotected-restore", "planned-failover", "reopt-failover")}
        assert counts == {"failover": 1, "unprotected-restore": 1,
                          "planned-failover": 2, "reopt-failover": 9}
        assert (result.forced_migrations, result.planned_migrations) == (2, 11)
        assert len(result.forced_times) == 2
        assert verify_stack(stack, result).passed
        # The oracle sums the same kinds: the old failover-blind count fails it.
        blind = dataclasses.replace(result, forced_migrations=0, planned_migrations=0)
        failed = {c.name for c in verify_stack(stack, blind).failures}
        assert failed == {"metrics.migration-counters"}
