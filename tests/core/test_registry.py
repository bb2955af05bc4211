"""The strategy registry: registration rules, metadata, enumeration.

Includes the regression tests for the duplicate-registration bug: a
second ``register_strategy_kind`` for an existing kind used to silently
clobber the first builder; it now raises
:class:`~repro.errors.ConfigurationError` unless ``override=True``.
"""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.registry import (
    ArgSpec,
    StrategyInfo,
    register_strategy,
    register_strategy_kind,
    strategy_builder,
    strategy_info,
    strategy_infos,
    strategy_kinds,
    synthesis_cohort,
    unregister_strategy,
)
from repro.core.strategies import SingleMarketStrategy
from repro.errors import ConfigurationError
from repro.runtime.spec import StrategySpec
from repro.traces.catalog import MarketKey

KEY = MarketKey("us-east-1a", "small")


def _cleanup(kind):
    if kind in strategy_kinds():
        unregister_strategy(kind)


# --------------------------------------------------------------- enumeration
def test_builtin_families_are_registered():
    kinds = strategy_kinds()
    for kind in (
        "single", "multi-market", "multi-region", "pure-spot", "on-demand",
        "stability", "index-tracking", "no-ft", "portfolio-bid",
    ):
        assert kind in kinds


def test_kinds_are_sorted_and_infos_align():
    kinds = strategy_kinds()
    assert kinds == sorted(kinds)
    assert [i.kind for i in strategy_infos()] == kinds


def test_every_builtin_has_citation_and_example():
    for info in strategy_infos():
        assert info.citation, f"{info.kind}: missing citation"
        assert info.display_name, f"{info.kind}: missing display name"
        assert info.arg_schema, f"{info.kind}: missing arg schema"
        spec = registry.example_spec(info.kind)
        built = spec.build()
        assert isinstance(built, info.builder)


def test_synthesis_cohort_is_weighted_and_sorted():
    cohort = synthesis_cohort()
    assert cohort, "at least one family must be drawable"
    assert all(i.synthesis_weight > 0 and i.synthesize is not None for i in cohort)
    assert [i.kind for i in cohort] == sorted(i.kind for i in cohort)


# -------------------------------------------------- duplicate registration
def test_duplicate_registration_raises():
    register_strategy_kind("dup-test", SingleMarketStrategy)
    try:
        with pytest.raises(ConfigurationError, match="already registered"):
            register_strategy_kind("dup-test", StrategySpec)  # different builder
        # The original registration survives the failed attempt.
        assert strategy_builder("dup-test") is SingleMarketStrategy
    finally:
        _cleanup("dup-test")


def test_same_builder_reregistration_is_idempotent():
    register_strategy_kind("idem-test", SingleMarketStrategy)
    try:
        register_strategy_kind("idem-test", SingleMarketStrategy)  # no raise
        assert strategy_builder("idem-test") is SingleMarketStrategy
    finally:
        _cleanup("idem-test")


def test_override_replaces_deliberately():
    register_strategy_kind("override-test", SingleMarketStrategy)
    try:

        def other(key):  # pragma: no cover - builder identity is the point
            return SingleMarketStrategy(key)

        register_strategy_kind("override-test", other, override=True)
        assert strategy_builder("override-test") is other
    finally:
        _cleanup("override-test")


def test_decorator_duplicate_raises_too():
    @register_strategy("deco-dup-test", example_args=(KEY,))
    class First(SingleMarketStrategy):
        pass

    try:
        with pytest.raises(ConfigurationError, match="override=True"):

            @register_strategy("deco-dup-test", example_args=(KEY,))
            class Second(SingleMarketStrategy):
                pass

    finally:
        _cleanup("deco-dup-test")


# ------------------------------------------------------------------ metadata
def test_unknown_metadata_key_raises():
    try:
        with pytest.raises(ConfigurationError, match="unknown registration metadata"):
            register_strategy_kind(
                "meta-test", SingleMarketStrategy, not_a_field=1
            )
    finally:
        _cleanup("meta-test")


def test_weight_without_synthesize_raises():
    with pytest.raises(ConfigurationError, match="synthesize"):
        StrategyInfo(
            kind="w-test",
            builder=SingleMarketStrategy,
            display_name="w",
            citation="",
            synthesis_weight=0.5,
        )


def test_arg_spec_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown schema kind"):
        ArgSpec("x", "tuple-of-frogs")


def test_unregister_unknown_kind_raises():
    with pytest.raises(ConfigurationError, match="not registered"):
        unregister_strategy("never-registered")


def test_unknown_kind_lookup_lists_known():
    with pytest.raises(ConfigurationError, match="registered:"):
        strategy_info("no-such-kind")


def test_discover_plugins_is_idempotent():
    # Builtins were loaded at import; a repeat discovery adds nothing.
    assert registry.discover_plugins() == []
    assert registry.discover_plugins(force=True) == []


def test_example_spec_round_trips_through_build():
    for kind in strategy_kinds():
        spec = registry.example_spec(kind)
        assert spec.kind == kind
        spec.build()  # must not raise
