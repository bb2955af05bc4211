"""The policy conformance suite: what every hosting strategy must obey.

The registry (:mod:`repro.core.registry`) makes strategy families
pluggable; this module makes them *accountable*. :func:`conformance_check`
runs one registered family through the contract every consumer of
:class:`~repro.core.strategies.HostingStrategy` relies on:

* **registered** — the family resolves to a
  :class:`~repro.core.registry.StrategyInfo` and its example spec builds
  an instance of the registered builder;
* **spec-round-trip** — the example :class:`~repro.runtime.spec.StrategySpec`
  pickles byte-identically and its fingerprint survives the round trip
  (the run-ledger resume path depends on this);
* **candidate-pricing** — every candidate market is in the catalog and
  ``spot_rate``/``on_demand_rate`` equal servers x price exactly;
* **unit-conservation** — ``servers_needed`` provisions at least
  ``service_units`` small-equivalents in every candidate market;
* **baseline-positive** — the normalization baseline is a positive rate;
* **vectorizable-honesty** — when the built instance claims
  ``vectorizable``, the event and vector engines produce field-identical
  results on a standard run;
* **fault-survival** — a seeded revocation storm completes with every
  post-run invariant oracle green.

All checks run on the standard 2-region / 2-size test grid, so a new
family passes or fails for reasons intrinsic to the family, not its
configuration. The suite itself is strategy-agnostic: registering a new
kind via the ``repro.strategies`` entry point is enough to be audited by
``pytest -m conformance``.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Union

import numpy as np

from repro.cloud.instance_types import instance_type
from repro.cloud.provider import CloudProvider
from repro.core import registry
from repro.core.simulation import RunSpec, run_simulation_observed
from repro.core.strategies import HostingStrategy
from repro.errors import ConfigurationError
from repro.runtime.spec import StrategySpec, spec_fingerprint
from repro.testkit.faults import FaultPlan
from repro.testkit.oracles import OracleReport, run_verified
from repro.traces.catalog import build_catalog
from repro.units import days

__all__ = [
    "GRID_REGIONS",
    "GRID_SIZES",
    "conformance_check",
]

#: The standard grid every conformance check runs on.
GRID_REGIONS = ("us-east-1a", "us-west-1a")
GRID_SIZES = ("small", "medium")

#: Seeds/horizons pinned so conformance is deterministic per family.
_GRID_SEED = 202
_RUN_SEED = 7
_STORM_SEED = 777
_HORIZON_S = days(3)


def _resolve_spec(strategy: Union[str, StrategySpec, type]) -> StrategySpec:
    """Accept a registered kind, a spec, or a registered strategy class."""
    if isinstance(strategy, StrategySpec):
        return strategy
    if isinstance(strategy, str):
        return registry.example_spec(strategy)
    if isinstance(strategy, type):
        info = registry.info_for_builder(strategy)
        if info is None:
            raise ConfigurationError(
                f"{strategy.__name__} is not a registered strategy "
                f"(missing @register_strategy?)"
            )
        return registry.example_spec(info.kind)
    raise ConfigurationError(
        f"cannot resolve {strategy!r} to a strategy spec"
    )


def _run_spec(spec: StrategySpec, **kw) -> RunSpec:
    return RunSpec(
        strategy=spec,
        seed=kw.pop("seed", _RUN_SEED),
        horizon_s=_HORIZON_S,
        regions=GRID_REGIONS,
        sizes=GRID_SIZES,
        label=f"conformance/{spec.kind}",
        **kw,
    )


def conformance_check(strategy: Union[str, StrategySpec, type]) -> OracleReport:
    """Audit one strategy family against the registry contract.

    ``strategy`` may be a registered kind name, a concrete
    :class:`~repro.runtime.spec.StrategySpec`, or a registered strategy
    class. Returns an :class:`~repro.testkit.oracles.OracleReport`; call
    ``.raise_on_failure()`` to turn red checks into
    :class:`~repro.errors.InvariantViolation`.
    """
    report = OracleReport()
    spec = _resolve_spec(strategy)
    info = registry.strategy_info(spec.kind)
    built = spec.build()

    ok = isinstance(built, HostingStrategy) and (
        not isinstance(info.builder, type) or isinstance(built, info.builder)
    )
    report.add(
        f"{spec.kind}: registered",
        ok,
        f"spec builds {type(built).__name__}; registered builder "
        f"{getattr(info.builder, '__name__', info.builder)!r}",
    )

    # --- spec round trip: the resume/ledger path serializes specs.
    blob = pickle.dumps(spec)
    thawed = pickle.loads(blob)
    report.add(
        f"{spec.kind}: spec-round-trip",
        thawed == spec
        and pickle.dumps(thawed) == blob
        and spec_fingerprint(_run_spec(thawed)) == spec_fingerprint(_run_spec(spec)),
        "pickle round trip is byte-identical and fingerprint-stable",
    )

    # --- pricing arithmetic on the standard grid.
    catalog = build_catalog(
        seed=_GRID_SEED, horizon=_HORIZON_S, regions=GRID_REGIONS, sizes=GRID_SIZES
    )
    provider = CloudProvider(catalog, rng=np.random.default_rng(0))
    known = set(catalog.markets())
    candidates = built.candidate_markets(provider)
    problems = []
    if not candidates:
        problems.append("no candidate markets")
    for key in candidates:
        if key not in known:
            problems.append(f"{key} not in catalog")
            continue
        n = built.servers_needed(key)
        price = catalog.trace(key).price_at(0.0)
        if built.spot_rate(key, price) != n * price:
            problems.append(f"{key}: spot_rate != servers x price")
        od = provider.on_demand_price(key)
        if built.on_demand_rate(provider, key) != n * od:
            problems.append(f"{key}: on_demand_rate != servers x od price")
    report.add(
        f"{spec.kind}: candidate-pricing",
        not problems,
        "; ".join(problems) or f"{len(candidates)} candidate market(s) priced",
    )

    conserved = [
        key
        for key in candidates
        if key in known
        and built.servers_needed(key) * instance_type(key.size).capacity_units
        < built.service_units
    ]
    report.add(
        f"{spec.kind}: unit-conservation",
        not conserved,
        (
            f"under-provisioned in {conserved}"
            if conserved
            else f"servers x capacity >= {built.service_units} unit(s) everywhere"
        ),
    )

    baseline = built.baseline_rate(provider)
    report.add(
        f"{spec.kind}: baseline-positive",
        baseline > 0,
        f"baseline rate {baseline:.4f} USD/h",
    )

    # --- vectorizable honesty: engine parity when the instance claims it.
    honest, detail = True, "not vectorizable: the event engine runs it"
    if built.vectorizable:
        event = run_simulation_observed(_run_spec(spec), engine="event").result
        vector = run_simulation_observed(_run_spec(spec), engine="vector").result
        honest = dataclasses.asdict(event) == dataclasses.asdict(vector)
        detail = (
            "event/vector engines agree field-for-field"
            if honest
            else "event and vector engines disagree on the standard run"
        )
    report.add(f"{spec.kind}: vectorizable-honesty", honest, detail)

    # --- survive a revocation storm with every invariant oracle green.
    storm = _run_spec(
        spec,
        seed=_STORM_SEED,
        faults=FaultPlan.revocation_storm(
            _STORM_SEED, _HORIZON_S, n_spikes=3, duration_s=1800.0
        ),
    )
    _, oracle_report = run_verified(storm)
    report.add(
        f"{spec.kind}: fault-survival",
        oracle_report.passed,
        oracle_report.summary(),
    )
    return report
