"""End-to-end integration tests of the paper's headline claims.

These run real multi-seed simulations on the calibrated market world (the
same pipeline the benchmark harness uses, smaller seed counts) and assert
the *shape* of each result: who wins, by roughly what factor.
"""

import numpy as np
import pytest

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.results import aggregate
from repro.core.simulation import RunSpec, run_many
from repro.runtime import StrategySpec
from repro.traces.calibration import SIZES
from repro.traces.catalog import MarketKey
from repro.units import days
from repro.vm.mechanisms import Mechanism, PESSIMISTIC_PARAMS, TYPICAL_PARAMS

SEEDS = [11, 23, 37]
HORIZON = days(30)
KEY = MarketKey("us-east-1a", "small")


def sim(strategy, bidding=None, mechanism=Mechanism.CKPT_LR, params=TYPICAL_PARAMS,
        regions=("us-east-1a",), sizes=("small",), label="x"):
    cfg = RunSpec(
        strategy=strategy,
        bidding=bidding or ProactiveBidding(),
        mechanism=mechanism,
        params=params,
        horizon_s=HORIZON,
        regions=regions,
        sizes=sizes,
        label=label,
    )
    return aggregate(run_many(cfg, SEEDS), label=label)


@pytest.fixture(scope="module")
def fig6():
    """Proactive vs reactive across the four us-east-1a markets."""
    out = {}
    for size in SIZES:
        key = MarketKey("us-east-1a", size)
        for bidding in (ProactiveBidding(), ReactiveBidding()):
            out[(bidding.name, size)] = sim(
                StrategySpec.single(key),
                bidding=bidding,
                sizes=(size,),
                label=f"{bidding.name}/{size}",
            )
    return out


class TestHeadlineCost:
    def test_single_market_cost_one_third_to_one_fifth(self, fig6):
        """Abstract: 'one-third to one-fifth the cost' of on-demand."""
        costs = [fig6[("proactive", s)].normalized_cost_percent for s in SIZES]
        assert min(costs) > 10.0
        assert max(costs) < 40.0
        assert any(c <= 100 / 3 + 2 for c in costs)

    def test_on_demand_baseline_is_100(self):
        agg = sim(StrategySpec.on_demand(KEY), label="od")
        assert agg.normalized_cost_percent == pytest.approx(100.0, abs=1.5)
        assert agg.unavailability_percent == 0.0


class TestFig6ProactiveVsReactive:
    def test_proactive_cheaper_or_equal(self, fig6):
        for s in SIZES:
            assert (
                fig6[("proactive", s)].normalized_cost_percent
                <= fig6[("reactive", s)].normalized_cost_percent + 1.0
            )

    def test_proactive_unavailability_much_lower(self, fig6):
        ratios = [
            fig6[("reactive", s)].unavailability_percent
            / max(fig6[("proactive", s)].unavailability_percent, 1e-9)
            for s in SIZES
        ]
        assert min(ratios) > 1.5
        assert max(ratios) > 2.5  # paper: 2.5-18x

    def test_proactive_far_fewer_forced_migrations(self, fig6):
        for s in SIZES:
            assert (
                fig6[("proactive", s)].forced_per_hour
                < 0.5 * fig6[("reactive", s)].forced_per_hour + 1e-9
            )

    def test_reactive_unavailability_below_tenth_percent(self, fig6):
        for s in SIZES:
            assert fig6[("reactive", s)].unavailability_percent < 0.12

    def test_planned_reverse_rates_same_order(self, fig6):
        for s in SIZES:
            a = fig6[("proactive", s)].planned_reverse_per_hour
            b = fig6[("reactive", s)].planned_reverse_per_hour
            assert 0.15 < a / max(b, 1e-9) < 6.0


class TestFig7Mechanisms:
    @pytest.fixture(scope="class")
    def unavail(self):
        out = {}
        for tag, params in (("typ", TYPICAL_PARAMS), ("pes", PESSIMISTIC_PARAMS)):
            for mech in Mechanism:
                out[(tag, mech)] = sim(
                    StrategySpec.single(KEY),
                    mechanism=mech, params=params, label=f"{tag}/{mech.value}",
                ).unavailability_percent
        return out

    def test_typical_ordering(self, unavail):
        assert unavail[("typ", Mechanism.CKPT)] > unavail[("typ", Mechanism.CKPT_LIVE)]
        assert unavail[("typ", Mechanism.CKPT_LIVE)] > unavail[("typ", Mechanism.CKPT_LR)]
        assert unavail[("typ", Mechanism.CKPT_LR)] > unavail[("typ", Mechanism.CKPT_LR_LIVE)]

    def test_best_mechanism_meets_four_nines(self, unavail):
        assert unavail[("typ", Mechanism.CKPT_LR_LIVE)] <= 0.01

    def test_pure_checkpointing_not_acceptable(self, unavail):
        """Paper: 'pure checkpointing is not desirable' — it misses the
        always-on bar that the LR variants clear."""
        assert unavail[("typ", Mechanism.CKPT)] > 2 * unavail[("typ", Mechanism.CKPT_LR)]

    def test_pessimistic_uniformly_worse(self, unavail):
        for mech in Mechanism:
            assert unavail[("pes", mech)] > unavail[("typ", mech)]

    def test_pessimistic_preserves_ordering(self, unavail):
        vals = [unavail[("pes", m)] for m in
                (Mechanism.CKPT, Mechanism.CKPT_LIVE, Mechanism.CKPT_LR,
                 Mechanism.CKPT_LR_LIVE)]
        assert vals == sorted(vals, reverse=True)


class TestFig8MultiMarket:
    @pytest.fixture(scope="class")
    def region_results(self):
        region = "us-east-1a"
        singles = [
            sim(
                StrategySpec.single(MarketKey(region, size)),
                sizes=SIZES, label=f"s/{size}",
            )
            for size in SIZES
        ]
        multi = sim(
            StrategySpec.multi_market(region), sizes=SIZES, label="multi",
        )
        return singles, multi

    def test_multi_market_cheaper_than_average_single(self, region_results):
        singles, multi = region_results
        avg = np.mean([a.normalized_cost_percent for a in singles])
        assert multi.normalized_cost_percent < avg

    def test_multi_market_availability_not_worse(self, region_results):
        singles, multi = region_results
        avg = np.mean([a.unavailability_percent for a in singles])
        assert multi.unavailability_percent < 2.0 * avg + 1e-4


class TestFig9MultiRegion:
    def test_pair_with_stable_region_cheaper_than_single_average(self):
        pair = ("us-east-1b", "eu-west-1a")
        singles = [
            sim(StrategySpec.multi_market(r), regions=(r,), sizes=SIZES,
                label=f"single/{r}")
            for r in pair
        ]
        multi = sim(
            StrategySpec.multi_region(pair), regions=pair, sizes=SIZES, label="mr",
        )
        avg = np.mean([a.normalized_cost_percent for a in singles])
        assert multi.normalized_cost_percent < avg + 1.0
        assert multi.normalized_cost_percent < 33.0


class TestFig11PureSpot:
    @pytest.fixture(scope="class")
    def pure_and_proactive(self):
        pure = sim(
            StrategySpec.pure_spot(KEY), bidding=ReactiveBidding(), label="pure",
        )
        pro = sim(StrategySpec.single(KEY), label="pro")
        return pure, pro

    def test_pure_spot_unacceptably_unavailable(self, pure_and_proactive):
        pure, _ = pure_and_proactive
        assert pure.unavailability_percent > 1.0

    def test_pure_spot_cheap_but_not_much_cheaper(self, pure_and_proactive):
        pure, pro = pure_and_proactive
        assert pure.normalized_cost_percent < pro.normalized_cost_percent + 1.0
        assert pure.normalized_cost_percent > 0.3 * pro.normalized_cost_percent

    def test_migration_scheduler_orders_of_magnitude_better(self, pure_and_proactive):
        pure, pro = pure_and_proactive
        assert pure.unavailability_percent / max(pro.unavailability_percent, 1e-9) > 50
