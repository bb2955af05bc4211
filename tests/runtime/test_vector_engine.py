"""Vector-engine equivalence and routing tests.

The contract under test: the vector engine produces results byte-identical
to the event engine on every configuration it accepts, and the executor's
``engine="auto"`` routing keeps ineligible runs (faulted, trace-capturing,
non-vectorizable policies) on the event engine — and a ledger changes
nothing about routing.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import run_simulation_observed
from repro.errors import ConfigurationError
from repro.obs import observe
from repro.runtime import RunSpec, StrategySpec, run_batch
from repro.runtime.cache import TraceCatalogCache
from repro.testkit.faults import FaultPlan
from repro.testkit.golden import SCENARIOS
from repro.traces.catalog import MarketKey
from repro.units import days

EAST_SMALL = MarketKey("us-east-1a", "small")

#: Shared cache so hypothesis examples reusing a seed skip catalog builds.
_CACHE = TraceCatalogCache()


def _spec(**kw) -> RunSpec:
    base = dict(
        strategy=StrategySpec.single(EAST_SMALL),
        seed=11,
        horizon_s=days(2),
        regions=("us-east-1a",),
        sizes=("small",),
        label="vector-test",
    )
    base.update(kw)
    return RunSpec(**base)


# ------------------------------------------------------------------ equivalence
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_vector_matches_event_on_golden_corpus(scenario):
    """Forced-vector runs reproduce every golden scenario bit-for-bit.

    Scenarios whose policy cannot batch (index-tracking, no-ft,
    portfolio-bid) exercise the degrade contract instead: a forced
    vector run falls back to per-event execution and reports it.
    """
    spec = scenario.spec()
    event = run_simulation_observed(spec)
    vector = run_simulation_observed(spec, engine="vector")
    assert event.engine_kind == "event"
    if spec.strategy.build().vectorizable:
        assert vector.engine_kind == "vector"
        assert vector.vector_checks > 0
    else:
        assert vector.engine_kind == "event"
        assert vector.vector_checks == 0
    assert vector.result == event.result


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=400),
    horizon_days=st.floats(min_value=1.0, max_value=3.0),
    kind=st.sampled_from(("single", "pure-spot", "on-demand", "multi-market")),
    region=st.sampled_from(("us-east-1a", "us-east-1b", "us-west-1a")),
    size=st.sampled_from(("small", "large")),
    bidding=st.one_of(
        st.floats(min_value=1.2, max_value=9.0).map(lambda k: ProactiveBidding(k=k)),
        st.just(ReactiveBidding()),
    ),
)
def test_vector_matches_event_property(seed, horizon_days, kind, region, size, bidding):
    """Random catalog samples × strategies × bidding: engines agree."""
    key = MarketKey(region, size)
    if kind == "single":
        strategy = StrategySpec.single(key)
    elif kind == "pure-spot":
        strategy = StrategySpec.pure_spot(key)
    elif kind == "on-demand":
        strategy = StrategySpec.on_demand(key)
    else:
        strategy = StrategySpec.multi_market(region, service_units=4)
    spec = _spec(
        strategy=strategy,
        bidding=bidding,
        seed=seed,
        horizon_s=days(horizon_days),
        regions=(region,),
        sizes=(size,) if kind != "multi-market" else ("small", "large"),
    )
    event = run_batch([spec], engine="event", cache=_CACHE)
    vector = run_batch([spec], engine="auto", cache=_CACHE)
    assert vector.results == event.results
    assert event.run_telemetry[0].engine_kind == "event"
    assert vector.run_telemetry[0].engine_kind == "vector"


# ---------------------------------------------------------------- auto routing
def test_auto_routes_eligible_run_to_vector():
    batch = run_batch([_spec()], engine="auto", cache=_CACHE)
    t = batch.run_telemetry[0]
    assert t.engine_kind == "vector"
    assert t.vector_checks > 0
    assert batch.telemetry.vector_runs == 1
    assert batch.telemetry.vector_checks >= t.vector_checks
    assert batch.telemetry.engine == "auto"


def test_auto_keeps_faulted_run_on_event_engine():
    faulted = _spec(
        faults=FaultPlan.revocation_storm(7, days(2), n_spikes=2, duration_s=900.0)
    )
    batch = run_batch([faulted], engine="auto", cache=_CACHE)
    assert batch.run_telemetry[0].engine_kind == "event"
    assert batch.telemetry.vector_runs == 0


def test_auto_keeps_traced_run_on_event_engine():
    with observe(trace=True):
        batch = run_batch([_spec()], engine="auto", cache=_CACHE)
    t = batch.run_telemetry[0]
    assert t.engine_kind == "event"
    assert t.trace_events  # capture actually happened
    assert batch.telemetry.vector_runs == 0


def test_ledgered_auto_batch_vector_routes_and_replays(tmp_path):
    """A ledger does not change routing: the ledgered ``auto`` batch runs
    on the vector engine, journals its clone too, and a resume replays
    every slot byte-identically."""
    specs = [
        _spec(bidding=ProactiveBidding(k=k), label=f"k={k}") for k in (5.0, 5.0, 2.0)
    ]
    ledger = tmp_path / "ledger.jsonl"
    plain = run_batch(specs, engine="auto", cache=_CACHE)
    batch = run_batch(specs, engine="auto", ledger=ledger, cache=_CACHE)
    assert [t.engine_kind for t in batch.run_telemetry] == ["vector"] * 3
    assert batch.telemetry.deduped_runs == plain.telemetry.deduped_runs >= 1
    assert batch.results == plain.results
    resumed = run_batch(specs, engine="auto", ledger=ledger, resume=True, cache=_CACHE)
    assert all(t.replayed for t in resumed.run_telemetry)
    assert [t.engine_kind for t in resumed.run_telemetry] == ["vector"] * 3
    assert [t.deduped for t in resumed.run_telemetry] == [
        t.deduped for t in batch.run_telemetry
    ]
    assert resumed.results == batch.results


def test_forced_vector_degrades_on_nonvectorizable_strategy():
    """NoFaultToleranceStrategy cannot batch (its recompute path only
    exists in the event engine): ``auto`` routes it per-event, and a
    forced per-run vector scheduler still runs it — per-event inside the
    scheduler — and reports what actually happened."""
    spec = _spec(strategy=StrategySpec.no_fault_tolerance(EAST_SMALL))
    event = run_batch([spec], engine="event", cache=_CACHE)
    auto = run_batch([spec], engine="auto", cache=_CACHE)
    vector = run_simulation_observed(spec, engine="vector")
    assert auto.run_telemetry[0].engine_kind == "event"
    assert vector.engine_kind == "event"
    assert vector.vector_checks == 0
    assert auto.results == event.results == (vector.result,)


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        run_batch([_spec()], engine="bogus", cache=_CACHE)
    for engine in ("auto", "fused"):
        with pytest.raises(ConfigurationError):
            run_simulation_observed(_spec(), engine=engine)


# --------------------------------------------------------------------- dedupe
def test_dedupe_clones_dynamics_identical_runs():
    """Proactive k values that all clamp at the provider's bid cap
    configure byte-identical dynamics: one representative executes, the
    twins are cloned, and results still match per-spec event runs."""
    specs = [
        _spec(bidding=ProactiveBidding(k=k), label=f"k={k}") for k in (5.0, 7.0, 9.0)
    ]
    auto = run_batch(specs, engine="auto", cache=_CACHE)
    assert auto.telemetry.deduped_runs == 2
    assert sum(1 for t in auto.run_telemetry if t.deduped) == 2
    for spec, got in zip(specs, auto.results):
        ev = run_batch([spec], engine="event", cache=_CACHE)
        assert got == ev.results[0]
    # Labels survive cloning: each result reports its own spec's label.
    assert [r.label for r in auto.results] == ["k=5.0", "k=7.0", "k=9.0"]
