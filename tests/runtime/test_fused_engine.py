"""Cross-run fusion equivalence and accounting tests.

The contract under test: ``engine="auto"`` produces results
byte-identical to the unfused per-run vector reference
(:func:`repro.testkit.oracles.unfused_vector_results`) and to ``event``
execution on every batch it accepts — its dedupe tiers (rank
projection, observed reverse-band cloning) are pure execution
optimizations.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import run_simulation_observed
from repro.runtime import RunSpec, StrategySpec, run_batch
from repro.runtime.cache import TraceCatalogCache
from repro.obs import observe
from repro.testkit.golden import FLEET_SCENARIOS, SCENARIOS
from repro.testkit.oracles import unfused_vector_results
from repro.traces.catalog import MarketKey
from repro.units import days

EAST = "us-east-1a"
EAST_SMALL = MarketKey(EAST, "small")

#: Shared across tests and hypothesis examples: dedupe equivalence must not
#: depend on catalog-cache temperature.
_CACHE = TraceCatalogCache()


def _spec(**kw) -> RunSpec:
    base = dict(
        strategy=StrategySpec.single(EAST_SMALL),
        seed=11,
        horizon_s=days(2),
        regions=(EAST,),
        sizes=("small",),
    )
    base.update(kw)
    return RunSpec(**base)


def _results(specs, engine):
    return run_batch(specs, engine=engine, cache=_CACHE).results


# ------------------------------------------------------------ golden parity
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_fused_matches_event_on_golden_corpus(scenario):
    """``--engine auto`` is byte-identical to ``event`` on every golden
    scenario — including the ones whose policies route per-event.

    ``archive-roundtrip`` replays an ingested archive of the sample its
    seed generates, so comparing it with ``traces=None`` also pins the
    archive path to the generated sample."""
    spec = scenario.spec()
    event = run_simulation_observed(spec)
    auto = run_batch([spec], engine="auto")
    assert auto.results[0] == event.result
    assert run_batch([spec.with_(traces=None)], engine="auto").results[0] == event.result


def test_fused_matches_event_on_fleet_golden():
    """The ``fleet-small`` golden renders the identical report bytes under
    cross-run dedupe."""
    from repro.fleet.runner import run_fleet
    from repro.runtime import ExecutionOptions

    scenario = FLEET_SCENARIOS[0]
    event = run_fleet(scenario.spec(), execution=ExecutionOptions(engine="event"))
    auto = run_fleet(scenario.spec(), execution=ExecutionOptions(engine="auto"))
    assert auto.to_json() == event.to_json()


# ----------------------------------------------------- hypothesis property
_STRATEGIES = (
    lambda: StrategySpec.single(EAST_SMALL),
    lambda: StrategySpec.pure_spot(EAST_SMALL),
    lambda: StrategySpec.multi_market(EAST, service_units=4),
    lambda: StrategySpec.stability((EAST,), service_units=4),
    lambda: StrategySpec.index_tracking((EAST,), service_units=4, n_markets=2),
)

#: Per-spec ``(grace_s, startup_cv)`` settings: non-bidding fields every
#: dedupe key must tell apart. The default and one setting per field, so
#: most draws hold a pair that differs in that field alone.
_CONFIGS = ((120.0, 0.25), (0.0, 0.25), (120.0, 0.0))


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5),
    ks=st.lists(
        st.floats(min_value=1.2, max_value=9.0, allow_nan=False),
        min_size=1,
        max_size=3,
    ),
    fracs=st.lists(
        st.floats(min_value=0.3, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=3,
    ),
    strategy_ids=st.lists(
        st.integers(min_value=0, max_value=len(_STRATEGIES) - 1),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    configs=st.lists(st.sampled_from(_CONFIGS), min_size=2, max_size=3, unique=True),
)
def test_fused_vector_event_equivalence(seed, ks, fracs, strategy_ids, configs):
    """``auto == unfused oracle == event`` over random mixed-strategy
    cohorts, including the vectorizable stability and index-tracking
    families, each crossed with per-spec ``grace_s``/``startup_cv``
    settings; the dedupe tiers must be invisible in the results, and a
    key that dropped a configuration field would clone across it."""
    specs = []
    for grace_s, startup_cv in configs:
        cfg = dict(seed=seed, grace_s=grace_s, startup_cv=startup_cv)
        tag = f"g{grace_s:g}/cv{startup_cv:g}"
        for sid in strategy_ids:
            for k in ks:
                for frac in fracs:
                    specs.append(
                        _spec(
                            strategy=_STRATEGIES[sid](),
                            bidding=ProactiveBidding(k=k, reverse_threshold_frac=frac),
                            label=f"s{sid}/k{k:.3f}/f{frac:.3f}/{tag}",
                            **cfg,
                        )
                    )
            specs.append(
                _spec(
                    strategy=_STRATEGIES[sid](),
                    bidding=ReactiveBidding(),
                    label=f"s{sid}/reactive/{tag}",
                    **cfg,
                )
            )
    auto = list(_results(specs, "auto"))
    assert auto == unfused_vector_results(specs, _CACHE)
    assert auto == list(_results(specs, "event"))


# ------------------------------------------------------ dedupe accounting
def _frontier(seed=3, ks=(1.5, 2.5, 4.0), fracs=(0.5, 0.7, 0.9)):
    """A sweep dense enough that the dedupe tiers all engage."""
    return [
        _spec(
            bidding=ProactiveBidding(k=k, reverse_threshold_frac=f),
            seed=seed,
            label=f"k{k}/f{f}",
        )
        for k in ks
        for f in fracs
    ]


def test_static_twins_expand_after_fused_evaluation():
    """Identical-dynamics twins clone their representative's result (label
    aside) and report honest provenance — also on a cold catalog, where
    the first run builds the catalog and the second is ranked against it.
    Both ``k`` values clamp at the provider's bid cap."""
    specs = [
        _spec(bidding=ProactiveBidding(k=5.0), label="a"),
        _spec(bidding=ProactiveBidding(k=6.0), label="b"),
    ]
    telemetry = []
    batch = run_batch(
        specs, engine="auto", cache=TraceCatalogCache(), progress=telemetry.append
    )
    a, b = batch.results
    assert dataclasses.replace(a, label="") == dataclasses.replace(b, label="")
    assert a.label == "a" and b.label == "b"
    assert not telemetry[0].deduped
    assert telemetry[1].deduped


def test_reverse_band_tier_clones_undiscriminated_fracs():
    """Reverse fractions the representative's trajectory never compared
    apart collapse onto one executed run — and stay byte-identical to
    per-spec event execution."""
    fracs = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    specs = [
        _spec(
            bidding=ProactiveBidding(k=4.0, reverse_threshold_frac=f),
            seed=7,
            horizon_s=days(7),
            label=f"f{f}",
        )
        for f in fracs
    ]
    with observe() as scope:
        auto = _results(specs, "auto")
    assert sum(b.deduped_runs for b in scope.batches) > 0, (
        "band tier found no undiscriminated fracs"
    )
    event = _results(specs, "event")
    assert auto == event


def test_frontier_matches_unfused_oracle():
    """The rank and band tiers clone 14 of the 18 runs, and every clone
    still equals the unfused per-run reference."""
    specs = _frontier() + _frontier(seed=4)
    with observe() as scope:
        auto = _results(specs, "auto")
    (batch,) = scope.batches
    assert batch.deduped_runs == 14
    assert batch.vector_runs == len(specs)
    assert list(auto) == unfused_vector_results(specs, _CACHE)


def test_dedupe_key_tells_grace_windows_apart():
    """Same-seed specs that differ only in ``grace_s`` are different runs:
    none is cloned from another, and each equals its event-engine run."""
    from repro.vm.mechanisms import Mechanism

    specs = [
        _spec(
            bidding=ReactiveBidding(),
            mechanism=Mechanism.CKPT_LR,
            horizon_s=days(10),
            grace_s=g,
        )
        for g in (0.0, 30.0, 60.0, 120.0, 240.0)
    ]
    with observe() as scope:
        auto = _results(specs, "auto")
    (batch,) = scope.batches
    assert batch.deduped_runs == 0
    assert auto == _results(specs, "event")
    # The axis matters on this sample: every window gives its own result.
    assert len({r.unavailability_percent for r in auto}) == len(specs)


def test_key_exclusions_name_real_fields():
    """A renamed field must not silently stop being excluded."""
    from repro.runtime.fused import KEY_EXCLUDED_FIELDS

    names = {f.name for f in dataclasses.fields(RunSpec)}
    assert set(KEY_EXCLUDED_FIELDS) <= names
    assert all(KEY_EXCLUDED_FIELDS.values())


def test_batch_rejects_unknown_engine_with_choices():
    from repro.errors import ConfigurationError

    for engine in ("bogus", "vector", "fused"):
        with pytest.raises(ConfigurationError, match="auto, event"):
            run_batch([_spec()], engine=engine, cache=_CACHE)


class _BrokenComponentsBidding(ProactiveBidding):
    def dynamics_components(self, od_prices):
        raise RuntimeError("broken dynamics_components")


def test_dedupe_key_errors_propagate():
    """A bidding policy whose ``dynamics_components`` raises fails the
    batch instead of silently running it undeduplicated."""
    specs = [_spec(bidding=_BrokenComponentsBidding(), label=f"run-{i}") for i in range(2)]
    with pytest.raises(RuntimeError, match="broken dynamics_components"):
        run_batch(specs, engine="auto", cache=_CACHE)
