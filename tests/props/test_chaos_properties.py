"""Chaos-mode property tests: scheduler invariants under random fault plans.

The calm-world invariants (tests/props/test_scheduler_invariants.py) must
survive arbitrary hostile regimes — random revocation storms, correlated
spikes, failing checkpoints, stretched copies. Every drawn world runs with
the full post-run oracle battery attached (``verify=True``), so a red
conservation check fails the property immediately.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.spot_market import BID_CAP_MULTIPLIER
from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import RunSpec, build_stack, summarize_stack
from repro.runtime.spec import StrategySpec
from repro.testkit.oracles import verify_stack
from repro.testkit.strategies import fault_plans
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")
HORIZON = days(5)


@st.composite
def chaos_worlds(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    plan = draw(fault_plans(horizon_s=HORIZON))
    policy = draw(st.sampled_from(["proactive", "reactive", "pure-spot", "multi"]))
    return seed, plan, policy


def build_config(seed, plan, policy):
    if policy == "pure-spot":
        strategy = StrategySpec.pure_spot(KEY)
        bidding = ReactiveBidding()
    elif policy == "reactive":
        strategy = StrategySpec.single(KEY)
        bidding = ReactiveBidding()
    elif policy == "multi":
        strategy = StrategySpec.multi_market("us-east-1a", service_units=2)
        bidding = ProactiveBidding()
    else:
        strategy = StrategySpec.single(KEY)
        bidding = ProactiveBidding()
    sizes = ("small", "medium", "large", "xlarge") if policy == "multi" else ("small",)
    return RunSpec(
        strategy=strategy,
        bidding=bidding,
        seed=seed,
        horizon_s=HORIZON,
        regions=("us-east-1a",),
        sizes=sizes,
        faults=plan,
    )


@given(chaos_worlds())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_invariants_hold_under_faults(world):
    from repro.obs.events import LeaseAcquired
    from repro.obs.sinks import MemorySink

    seed, plan, policy = world
    sink = MemorySink()
    stack = build_stack(build_config(seed, plan, policy), sink=sink)
    stack.scheduler.run()
    result = summarize_stack(stack)

    # the full oracle battery: billing, availability, placement, metrics
    report = verify_stack(stack, result)
    assert report.passed, report.summary()

    # no overlapping placements, all inside the horizon
    log = stack.scheduler.placement_log
    for a, b in zip(log, log[1:]):
        assert a.end <= b.start + 1e-9
    assert all(0.0 <= r.start < r.end <= HORIZON + 1e-9 for r in log)

    # every bid respects the 4x on-demand cap, even at spiked prices
    for event in sink.events:
        if isinstance(event, LeaseAcquired) and event.kind == "spot":
            cap = BID_CAP_MULTIPLIER * stack.catalog.on_demand_price(
                MarketKey(*event.market.split("/"))
            )
            assert event.bid is not None and event.bid <= cap + 1e-9

    # blackout accounting: downtime within window, causes add up
    assert 0.0 <= result.downtime_s <= HORIZON + 1e-6
    assert abs(sum(result.downtime_by_cause.values()) - result.downtime_s) < 1e-6

    # cost decomposition survives hostile markets
    assert result.total_cost >= 0.0
    assert abs(result.spot_cost + result.on_demand_cost - result.total_cost) < 1e-9
    if policy == "pure-spot":
        assert result.on_demand_cost == 0.0


@given(chaos_worlds())
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_faulted_runs_are_deterministic(world):
    seed, plan, policy = world
    from repro.core.simulation import run_simulation

    config = build_config(seed, plan, policy)
    assert run_simulation(config) == run_simulation(config)
