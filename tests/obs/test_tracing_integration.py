"""Instrumented runs: events emitted, metrics tallied, results unchanged."""

import pytest

from repro.core.bidding import ReactiveBidding
from repro.core.simulation import (
    RunSpec,
    run_simulation,
    run_simulation_observed,
)
from repro.obs import MemorySink, event_from_dict
from repro.runtime import StrategySpec
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def cfg(**kw):
    base = dict(
        strategy=StrategySpec.single(KEY),
        regions=("us-east-1a",),
        sizes=("small",),
        horizon_s=days(5),
        seed=23,
    )
    base.update(kw)
    return RunSpec(**base)


class TestEmission:
    def test_traced_run_emits_the_core_event_families(self):
        sink = MemorySink()
        observed = run_simulation_observed(cfg(), sink=sink)
        types = {type(e).etype for e in sink.events}
        assert {"bid-placed", "lease-acquired", "billing-tick",
                "engine-run-completed"} <= types
        assert observed.fired_events > 0
        # Every event survives the wire round trip.
        for event in sink.events:
            assert event_from_dict(event.to_dict()) == event

    def test_reactive_run_traces_its_revocations(self):
        sink = MemorySink()
        observed = run_simulation_observed(
            cfg(bidding=ReactiveBidding(), horizon_s=days(10)), sink=sink
        )
        counts = {}
        for e in sink.events:
            counts[type(e).etype] = counts.get(type(e).etype, 0) + 1
        if observed.result.forced_migrations:
            assert counts.get("revocation-warning", 0) >= observed.result.forced_migrations
            assert counts.get("forced-migration") == observed.result.forced_migrations

    def test_bid_placed_carries_the_policy_rationale(self):
        sink = MemorySink()
        run_simulation_observed(cfg(), sink=sink)
        bids = [e for e in sink.events if type(e).etype == "bid-placed"]
        assert bids and all(b.rationale for b in bids)


class TestMetrics:
    def test_metrics_agree_with_the_result(self):
        observed = run_simulation_observed(cfg(horizon_s=days(10)))
        result, metrics = observed.result, observed.metrics

        def counter(name):
            c = metrics.counters.get(name)
            return int(c.value) if c else 0

        assert counter("migrations.planned") == result.planned_migrations
        assert counter("migrations.reverse") == result.reverse_migrations
        assert counter("migrations.forced") == result.forced_migrations
        assert metrics.gauges["total_cost_usd"].value == pytest.approx(result.total_cost)
        assert metrics.gauges["unavailability_percent"].value == pytest.approx(
            result.unavailability_percent
        )
        assert metrics.histograms["downtime_s"].total == pytest.approx(
            result.downtime_s, abs=1e-6
        )


class TestNullSinkIdentity:
    def test_observed_run_matches_plain_run_exactly(self):
        assert run_simulation_observed(cfg()).result == run_simulation(cfg())

    def test_tracing_does_not_change_the_result(self):
        sink = MemorySink()
        traced = run_simulation_observed(cfg(), sink=sink)
        assert sink.events
        assert traced.result == run_simulation(cfg())
