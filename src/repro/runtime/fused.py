"""Cross-run fusion: prove runs identical before executing them.

A policy sweep runs hundreds of variants over the same compiled catalog,
and many of them configure byte-identical simulations. This module finds
those twins so the executor runs one representative and clones the rest,
without touching a single decision. Two clone tiers apply, both once the
unit's catalog is cached:

* :func:`dynamics_key` ranks each bidding threshold against the trace's
  price ladder: thresholds in the same gap between trace prices configure
  provably identical runs. It also drops the parameters a strategy never
  reads — an on-demand-only strategy never evaluates bids, a pure-spot
  strategy never evaluates the reverse-migration threshold — so whole
  axes of a sweep collapse onto one executed representative. Every other
  ``RunSpec`` field is keyed as it is, bar :data:`KEY_EXCLUDED_FIELDS`.
* :func:`band_matches` matches reverse thresholds against the envelope of
  prices an executed run actually compared.

Everything here is an optimisation layer over the per-run vector engine;
``--engine auto`` therefore inherits its bit-identity contract, enforced
by the golden corpus and the auto == unfused oracle == event hypothesis
property in ``tests/runtime/test_fused_engine.py``.
"""

from __future__ import annotations

import bisect
import dataclasses
import operator
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.simulation import RunSpec

__all__ = ["band_matches", "dynamics_key"]


#: The :class:`~repro.core.simulation.RunSpec` fields :func:`dynamics_key`
#: leaves out, each with its reason. Every other field is keyed as it is,
#: so a new field joins the key by default: fewer clones, never wrong ones.
KEY_EXCLUDED_FIELDS = {
    "bidding": "keyed as its rank-projected signature",
    "label": "names the result, never changes the dynamics",
    **dict.fromkeys(("seed", "horizon_s", "regions", "sizes", "traces"), "in the catalog key"),
    **dict.fromkeys(("calibrations", "faults"), "makes the spec ineligible"),
}
#: The keyed fields' values of one spec, as a tuple.
_keyed_fields = operator.attrgetter(
    *(f.name for f in dataclasses.fields(RunSpec) if f.name not in KEY_EXCLUDED_FIELDS)
)


#: One spec frame, keyed by (strategy identity, regions, sizes): the
#: strategy spec (held so its id is not reused), the frame's markets,
#: their on-demand prices, and the strategy's ``allows_spot`` and
#: ``allows_on_demand`` flags.
Frame = Tuple[object, List[object], Tuple[float, ...], bool, bool]


def _frame(spec, catalog, frames: Dict[tuple, Frame]) -> Frame:
    """The per-(strategy, regions, sizes) part of :func:`dynamics_key`,
    built once per distinct frame of a unit, over the unit's ``catalog``
    (whose on-demand prices the runs see): the strategy is built only to
    read its two capability flags. The strategy is keyed by identity,
    never by equality; the region and size names, plain strings, by value.
    """
    fkey = (id(spec.strategy), tuple(spec.regions), tuple(spec.sizes))
    frame = frames.get(fkey)
    if frame is None:
        from repro.traces.catalog import MarketKey

        markets = [MarketKey(r, s) for r in spec.regions for s in spec.sizes]
        strategy = spec.strategy.build()
        frame = frames[fkey] = (
            spec.strategy,
            markets,
            tuple(catalog.on_demand_price(k) for k in markets),
            getattr(strategy, "allows_spot", True),
            getattr(strategy, "allows_on_demand", True),
        )
    return frame


def dynamics_key(
    spec,
    catalog,
    ladders: Dict[Tuple[object, str, str], List[float]],
    frames: Dict[tuple, Frame],
    catalog_key,
) -> Optional[Tuple[tuple, Optional[Dict[Tuple[str, str], float]]]]:
    """The dynamics identity of one spec over its cached ``catalog``, or
    ``None``.

    A bidding policy's parameters reach the simulation *only* as
    thresholds in ``price <= x`` / ``price > x`` comparisons against a
    market's step-function trace (grants, revocation warnings, re-grant
    waits, candidate filters, planned/reverse predicates) — never in
    arithmetic. The trace takes finitely many price values, so two
    thresholds with no trace price strictly between them partition every
    instant identically and are *provably indistinguishable*: the runs
    they configure are byte-identical. The key therefore replaces each
    numeric threshold of the policy's ``dynamics_components`` with its
    **rank** — the count of distinct trace prices at or below it — in the
    market's sorted price ladder. That collapses e.g. every proactive
    ``k`` whose bid clamps at the provider cap or lands in the same gap
    between trace spikes. Components the strategy can never evaluate are
    dropped: an on-demand-only strategy keeps only the policy's name
    (which default result labels embed).

    Returns ``(key, reverse_thresholds)``. The key is the catalog key,
    the projected bidding signature and every ``RunSpec`` field but the
    named exclusions of :data:`KEY_EXCLUDED_FIELDS`: everything the run's
    dynamics depend on *except* the reverse-migration thresholds, which
    come back separately (``{(region, size): threshold}``), or
    ``None`` when the strategy never evaluates the reverse predicate
    (od-only, pure-spot) so the key alone decides equivalence. Reverse
    thresholds are matched against the *observed reverse band* of an
    executed representative instead, which collapses every threshold the
    run never discriminated, a strict superset of ladder-rank equality
    (see :func:`band_matches`).

    ``None`` — no dedupe for this spec — for anything the components
    cannot vouch for: faults, calibration overrides (they could move
    on-demand prices), a policy without numeric ``*_thresholds``
    components, unhashable spec arguments, or no ``catalog_key``. Any
    other error (a raising ``dynamics_components``) propagates.
    ``ladders`` is the caller's memo of sorted unique prices, keyed
    ``(catalog_key, region, size)``; ``frames`` its memo of spec frames
    (:data:`Frame`).
    """
    comp_fn = getattr(spec.bidding, "dynamics_components", None)
    if (
        catalog_key is None
        or not callable(comp_fn)
        or spec.faults is not None
        or spec.calibrations is not None
    ):
        return None
    _, markets, ods, allows_spot, allows_on_demand = _frame(spec, catalog, frames)
    comp = comp_fn(ods)
    if "reverse_thresholds" not in comp:
        return None

    def ranks(values) -> Optional[tuple]:
        if values is None:
            return None
        out = []
        for key, value in zip(markets, values):
            lkey = (catalog_key, key.region, key.size)
            ladder = ladders.get(lkey)
            if ladder is None:
                # Stored as a plain list: rank lookups are scalar, and
                # bisect beats scalar np.searchsorted call overhead.
                ladder = np.unique(catalog.trace(key).compiled.prices).tolist()
                ladders[lkey] = ladder
            out.append(bisect.bisect_right(ladder, value))
        return tuple(out)

    reverse: Optional[Dict[Tuple[str, str], float]] = None
    if not allows_spot:
        sig: object = comp["name"]
    else:
        sig = (comp["name"], ranks(comp["bids"]), ranks(comp["planned_thresholds"]))
        if allows_on_demand:
            reverse = {
                (k.region, k.size): float(v)
                for k, v in zip(markets, comp["reverse_thresholds"])
            }
    key = (catalog_key, sig, _keyed_fields(spec))
    try:
        hash(key)
    except TypeError:
        # Unhashable spec arguments (``StrategySpec.of(kind, [list])``).
        return None
    return key, reverse


def band_matches(
    band: Mapping, reverse: Mapping[Tuple[str, str], float]
) -> bool:
    """Would these reverse thresholds make every accept/reject call the
    band's recording run made?

    ``band`` is a scheduler's ``reverse_band``: per market, ``lo`` is the
    largest compared price the predicate accepted and ``hi`` the smallest
    it rejected, so any threshold in ``[lo, hi)`` agrees with the
    recorded run at every comparison it performed. Agreement at every
    comparison pins the whole trajectory by induction — both runs start
    identically, and at each decision the compared prices (the same ones,
    since the prefixes coincide) yield the same predicate answers — so a
    match is *proof* of byte-identical results, not a heuristic. Markets
    the run never compared impose no constraint and are absent from the
    band.
    """
    for key, (lo, hi) in band.items():
        threshold = reverse.get((key.region, key.size))
        if threshold is None or not lo <= threshold < hi:
            return False
    return True
