"""Spec layer: every registered variant must pickle and rebuild."""

import pickle

import pytest

from repro.core.adaptive import AdaptiveBidding
from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import run_simulation
from repro.core.policies import (
    IndexTrackingStrategy,
    NoFaultToleranceStrategy,
    PortfolioBidStrategy,
)
from repro.core.registry import unregister_strategy
from repro.core.strategies import (
    HostingStrategy,
    MultiMarketStrategy,
    MultiRegionStrategy,
    OnDemandOnlyStrategy,
    PureSpotStrategy,
    SingleMarketStrategy,
    StabilityAwareStrategy,
)
from repro.errors import ConfigurationError
from repro.runtime import (
    BatchSpec,
    RunSpec,
    StrategySpec,
    register_strategy_kind,
    run_batch,
    strategy_kinds,
)
from repro.traces.catalog import MarketKey
from repro.units import days
from repro.vm.mechanisms import Mechanism, PESSIMISTIC_PARAMS, TYPICAL_PARAMS

KEY = MarketKey("us-east-1a", "small")
REGION_PAIR = ("us-east-1a", "eu-west-1a")

#: One representative spec per registered strategy kind, and the class it
#: must build. Keep in sync with the registry — the completeness test below
#: fails if a kind is added without a row here.
SPEC_CASES = {
    "single": (StrategySpec.single(KEY), SingleMarketStrategy),
    "pure-spot": (StrategySpec.pure_spot(KEY), PureSpotStrategy),
    "on-demand": (StrategySpec.on_demand(KEY), OnDemandOnlyStrategy),
    "multi-market": (StrategySpec.multi_market("us-east-1a"), MultiMarketStrategy),
    "multi-region": (StrategySpec.multi_region(REGION_PAIR), MultiRegionStrategy),
    "stability": (
        StrategySpec.stability(REGION_PAIR, stability_weight=2.0),
        StabilityAwareStrategy,
    ),
    "index-tracking": (
        StrategySpec.index_tracking(REGION_PAIR, band=0.2),
        IndexTrackingStrategy,
    ),
    "no-ft": (StrategySpec.no_fault_tolerance(KEY), NoFaultToleranceStrategy),
    "portfolio-bid": (
        StrategySpec.portfolio_bid(REGION_PAIR, risk_cap=0.1),
        PortfolioBidStrategy,
    ),
}

BIDDINGS = (ReactiveBidding(), ProactiveBidding(), AdaptiveBidding())


def test_every_registered_kind_has_a_case():
    assert set(SPEC_CASES) == set(strategy_kinds())


@pytest.mark.parametrize("kind", sorted(SPEC_CASES))
def test_strategy_spec_builds_a_fresh_instance(kind):
    spec, cls = SPEC_CASES[kind]
    assert isinstance(spec.build(), cls)
    # Each call builds a fresh instance.
    assert spec.build() is not spec.build()


@pytest.mark.parametrize("kind", sorted(SPEC_CASES))
def test_strategy_spec_pickle_round_trip(kind):
    spec, cls = SPEC_CASES[kind]
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert isinstance(clone.build(), cls)


@pytest.mark.parametrize("kind", sorted(SPEC_CASES))
@pytest.mark.parametrize("bidding", BIDDINGS, ids=lambda b: b.name)
@pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
def test_run_spec_pickles_for_every_combination(kind, bidding, mechanism):
    """Satellite: every strategy × bidding × mechanism combination must
    round-trip through pickle and yield a runnable spec."""
    spec, cls = SPEC_CASES[kind]
    run = RunSpec(
        strategy=spec,
        bidding=bidding,
        mechanism=mechanism,
        params=PESSIMISTIC_PARAMS if mechanism is Mechanism.CKPT else TYPICAL_PARAMS,
        seed=3,
        horizon_s=days(2),
        regions=REGION_PAIR,
        sizes=("small",),
    )
    clone = pickle.loads(pickle.dumps(run))
    assert clone == run
    assert isinstance(clone.strategy.build(), cls)
    assert clone.bidding.name == bidding.name


def test_run_spec_executes_after_pickling():
    run = RunSpec(
        strategy=StrategySpec.single(KEY),
        seed=5,
        horizon_s=days(2),
        regions=("us-east-1a",),
        sizes=("small",),
    )
    clone = pickle.loads(pickle.dumps(run))
    result = run_simulation(clone)
    assert result.seed == 5
    assert result.duration_hours > 0


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        StrategySpec.of("warp-drive", KEY)


def test_register_strategy_kind_extends_registry():
    class NullStrategy(SingleMarketStrategy):
        pass

    register_strategy_kind("null-test", NullStrategy)
    try:
        spec = StrategySpec.of("null-test", KEY)
        assert isinstance(spec.build(), NullStrategy)
    finally:
        unregister_strategy("null-test")


def test_duplicate_registration_via_runtime_facade_raises():
    """Regression: a second registration used to clobber the first."""

    class FirstStrategy(SingleMarketStrategy):
        pass

    class SecondStrategy(SingleMarketStrategy):
        pass

    register_strategy_kind("dup-facade-test", FirstStrategy)
    try:
        with pytest.raises(ConfigurationError, match="already registered"):
            register_strategy_kind("dup-facade-test", SecondStrategy)
        register_strategy_kind("dup-facade-test", SecondStrategy, override=True)
        assert isinstance(
            StrategySpec.of("dup-facade-test", KEY).build(), SecondStrategy
        )
    finally:
        unregister_strategy("dup-facade-test")


def test_direct_runs_isolate_a_reused_stateful_policy():
    """One :class:`AdaptiveBidding` reused across direct runs gives each
    run the policy as the spec holds it, exactly as ``run_batch`` does.
    Its bid cache is keyed on market and time bucket, not on the trace, so
    without a per-run copy seed 2's bids would steer seed 102."""
    policy = AdaptiveBidding(max_revocations_per_month=0.5)
    specs = [
        RunSpec(
            strategy=StrategySpec.multi_market("us-east-1a", service_units=8),
            bidding=policy,
            seed=seed,
            horizon_s=days(30),
            regions=("us-east-1a",),
        )
        for seed in (2, 102)
    ]
    batch = run_batch(specs).results
    direct = [run_simulation(spec) for spec in specs]
    assert direct == list(batch)
    assert run_batch(specs).results == batch


def test_run_spec_refuses_non_strategy_spec():
    """A strategy is always a :class:`StrategySpec`; a closure or a bare
    class is refused at construction, pointing to the spec builders."""
    portable = RunSpec(strategy=StrategySpec.single(KEY))
    for strategy in (lambda: SingleMarketStrategy(KEY), SingleMarketStrategy):
        with pytest.raises(ConfigurationError, match=r"StrategySpec\.of\(kind"):
            RunSpec(strategy=strategy)
        with pytest.raises(ConfigurationError, match="register_strategy_kind"):
            portable.with_(strategy=strategy)


def test_batch_spec_holds_runs_in_order():
    base = RunSpec(strategy=StrategySpec.single(KEY))
    batch = BatchSpec(runs=tuple(base.with_(seed=s) for s in (1, 2, 3)))
    assert [r.seed for r in batch] == [1, 2, 3]
    assert len(batch) == 3
    with pytest.raises(ConfigurationError):
        BatchSpec(runs=())
