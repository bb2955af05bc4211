"""Every registered hosting strategy must pass the conformance suite.

The parametrization enumerates :func:`repro.core.registry.strategy_kinds`
at collection time, so a family registered through the
``repro.strategies`` entry point — or by any test that leaves a kind
registered — is audited automatically; there is no list to update here.
"""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.policies import IndexTrackingStrategy
from repro.core.strategies import HostingStrategy, SingleMarketStrategy
from repro.errors import ConfigurationError
from repro.runtime.spec import StrategySpec
from repro.testkit.conformance import GRID_REGIONS, conformance_check

pytestmark = pytest.mark.conformance


@pytest.mark.parametrize("kind", registry.strategy_kinds())
def test_registered_strategy_conforms(kind):
    conformance_check(kind).raise_on_failure()


def test_accepts_a_registered_class():
    report = conformance_check(SingleMarketStrategy)
    assert report.passed


def test_accepts_a_concrete_spec():
    spec = StrategySpec.index_tracking(GRID_REGIONS, band=0.25)
    report = conformance_check(spec)
    assert report.passed


def test_unregistered_class_is_rejected():
    class Orphan(HostingStrategy):
        def candidate_markets(self, provider):  # pragma: no cover
            return []

    with pytest.raises(ConfigurationError, match="not a registered strategy"):
        conformance_check(Orphan)


def test_subclass_resolves_to_its_registered_parent():
    class Tweaked(IndexTrackingStrategy):
        pass

    info = registry.info_for_builder(Tweaked)
    assert info is not None and info.kind == "index-tracking"
