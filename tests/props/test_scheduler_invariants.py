"""Property-based tests: scheduler invariants over randomized market worlds.

Whatever the price process does, a finished simulation must satisfy the
conservation laws checked here — costs non-negative and decomposable,
downtime within the window and non-overlapping, every lease released,
migrations time-ordered.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import RunSpec, run_simulation
from repro.runtime import StrategySpec
from repro.testkit.strategies import worlds
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def build_config(seed, cal, policy):
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
        horizon_s=days(7),
        regions=("us-east-1a",),
        sizes=sizes,
        calibrations={("us-east-1a", "small"): cal},
    )


@given(worlds())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simulation_invariants(world):
    seed, cal, policy = world
    r = run_simulation(build_config(seed, cal, policy))

    # cost conservation and non-negativity
    assert r.total_cost >= 0.0
    assert abs(r.spot_cost + r.on_demand_cost - r.total_cost) < 1e-9
    assert r.baseline_cost > 0.0

    # availability bookkeeping
    assert 0.0 <= r.unavailability_percent <= 100.0
    assert 0.0 <= r.downtime_s <= days(7) + 1e-6
    assert abs(sum(r.downtime_by_cause.values()) - r.downtime_s) < 1e-6
    assert r.duration_hours <= 7 * 24 + 1e-9

    # migration counters are consistent
    assert r.forced_migrations >= 0
    assert r.planned_migrations >= 0
    assert r.reverse_migrations >= 0
    if policy == "pure-spot":
        assert r.on_demand_cost == 0.0
        assert r.forced_migrations == 0  # pure spot records outages instead

    # the scheduler never spends more than ~3x the all-on-demand baseline
    # (it migrates away from expensive spot; overlap hours are bounded)
    assert r.normalized_cost_percent < 300.0


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=10, deadline=None)
def test_proactive_never_noticeably_more_unavailable_than_reactive(seed):
    """Directional claim on arbitrary seeds: proactive's unavailability is at
    most reactive's plus a tiny tolerance (both on the same sample)."""
    from repro.traces.catalog import build_catalog

    cat = build_catalog(seed=seed, horizon=days(7), regions=("us-east-1a",), sizes=("small",))
    pro = run_simulation(
        RunSpec(
            strategy=StrategySpec.single(KEY), bidding=ProactiveBidding(),
            horizon_s=days(7), regions=("us-east-1a",), sizes=("small",),
        ),
        catalog=cat,
    )
    rea = run_simulation(
        RunSpec(
            strategy=StrategySpec.single(KEY), bidding=ReactiveBidding(),
            horizon_s=days(7), regions=("us-east-1a",), sizes=("small",),
        ),
        catalog=cat,
    )
    assert pro.unavailability_percent <= rea.unavailability_percent + 0.002
