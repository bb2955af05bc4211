"""The scheduler's per-tenure memo never changes a decision.

:meth:`CloudScheduler._tenure` hoists each placement's market, bid,
planned lead and boundary anchor, and memoises its revocation-warning
instant between boundary visits. The memo is exact only because the
first bid crossing at or after ``t`` is monotone in ``t``; this suite
checks the memoised warning against a fresh naive scan at every visit.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.scheduler import CloudScheduler
from repro.core.simulation import RunSpec, run_simulation
from repro.runtime import StrategySpec
from repro.testkit.oracles import naive_first_time_above
from repro.testkit.strategies import worlds
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")

POLICIES = {
    "pure-spot": (StrategySpec.pure_spot(KEY), ReactiveBidding()),
    "reactive": (StrategySpec.single(KEY), ReactiveBidding()),
    "multi": (StrategySpec.multi_market("us-east-1a", service_units=2), ProactiveBidding()),
    "proactive": (StrategySpec.single(KEY), ProactiveBidding(k=1.5)),
}


def checked_spot_visits(seed, cal, policy):
    """Run one simulation and compare the memoised warning with a fresh
    naive scan at every spot visit; return how many visits were checked."""
    strategy, bidding = POLICIES[policy]
    sizes = ("small", "medium", "large", "xlarge") if policy == "multi" else ("small",)
    config = RunSpec(
        strategy=strategy,
        bidding=bidding,
        seed=seed,
        horizon_s=days(5),
        regions=("us-east-1a",),
        sizes=sizes,
        calibrations={("us-east-1a", "small"): cal},
    )
    tenure_of = CloudScheduler._tenure
    checked = []

    def tenure_checked(self, now):
        tenure = tenure_of(self, now)
        if tenure.bid is not None:
            fresh = naive_first_time_above(tenure.market.trace, tenure.bid, now)
            assert tenure.warning == fresh, (now, tenure.warning, fresh)
            checked.append(now)
        return tenure

    with mock.patch.object(CloudScheduler, "_tenure", tenure_checked):
        run_simulation(config)
    return len(checked)


@given(worlds())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_memoised_warning_equals_fresh_scan_at_every_visit(world):
    checked_spot_visits(*world)


def test_memo_is_checked_across_revocations():
    """A spiky world with a low bid: many visits, several tenures."""
    from dataclasses import replace

    from repro.traces.calibration import calibration_for

    cal = calibration_for("us-east-1a", "small")
    cal = replace(cal, spikes=replace(cal.spikes, rate_per_hour=0.05))
    assert checked_spot_visits(3, cal, "proactive") > 50
