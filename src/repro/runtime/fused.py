"""Cross-run fusion: prove runs identical before executing them.

A policy sweep runs hundreds of variants over the same compiled catalog,
and many of them configure byte-identical simulations. This module finds
those twins so the executor runs one representative and clones the rest,
without touching a single decision:

* :func:`fused_dedupe_key` extends the dynamics-signature dedupe with
  *capability-aware projection*: a strategy that can never leave spot
  never evaluates the bidding policy's reverse threshold, and an
  on-demand-only strategy never evaluates bids at all — so the projected
  key drops exactly the parameters the scheduler provably never reads,
  collapsing whole axes of a sweep into one executed representative
  (byte-identical by construction: the dropped parameters have no code
  path that could observe them).
* :func:`rank_projection` and :func:`band_matches` refine that key once
  the unit's catalog is cached: thresholds in the same gap of a trace's
  price ladder, and reverse thresholds inside the envelope an executed
  run actually compared, configure provably identical runs.
* :func:`plan_fusion` turns one catalog unit of pending runs into the
  static twin/representative map the executor's unit loop clones from.

Everything here is an optimisation layer over the per-run vector engine;
``--engine auto`` therefore inherits its bit-identity contract, enforced
by the golden corpus and the auto == unfused oracle == event hypothesis
property in ``tests/runtime/test_fused_engine.py``.
"""

from __future__ import annotations

import bisect
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "band_matches",
    "fused_dedupe_key",
    "plan_fusion",
    "rank_projection",
]


def _dynamics_base(spec) -> Optional[Tuple[object, tuple]]:
    """``(catalog_key, on-demand prices)`` of a spec whose dynamics can be
    keyed, or ``None``.

    The guard every dynamics key shares: no faults, no capture, no
    calibration overrides (they could move on-demand prices), a
    declarative :class:`~repro.runtime.spec.StrategySpec`, a resolvable
    catalog key, and on-demand prices for every market (one per
    ``regions`` x ``sizes`` pair, region-major).
    """
    if spec.capture_trace or spec.faults is not None or spec.calibrations is not None:
        return None
    from repro.runtime.spec import StrategySpec

    if not isinstance(spec.strategy, StrategySpec):
        return None
    catalog_key = spec.catalog_key()
    if catalog_key is None:
        return None
    try:
        from repro.traces.calibration import on_demand_price

        ods = tuple(
            on_demand_price(region, size)
            for region in spec.regions
            for size in spec.sizes
        )
    except Exception:
        return None
    return catalog_key, ods


def _dynamics_key(spec, catalog_key, sig) -> Optional[tuple]:
    """The hashable key of a guarded spec with dynamics signature ``sig``."""
    key = (
        catalog_key,
        spec.strategy,
        spec.mechanism,
        spec.params,
        float(spec.startup_cv),
        float(spec.service_disk_gib),
        sig,
    )
    try:
        hash(key)
    except Exception:
        return None
    return key


def fused_dedupe_key(spec, project: bool = True) -> Optional[tuple]:
    """Capability-projected dynamics identity of one spec, or ``None``.

    Two specs with equal keys configure byte-identical simulations up to
    the result label: same catalog (seed, horizon, markets, calibration),
    same declarative strategy, same mechanism timing, same startup
    distribution — and a bidding policy whose
    :meth:`~repro.core.bidding.BiddingPolicy.dynamics_signature` matches,
    i.e. the *effective* bids and migration thresholds coincide (e.g.
    proactive ``k`` values that all clamp at the provider's bid cap).
    Anything the signature cannot vouch for (calibration overrides that
    could move on-demand prices, stateful policies, legacy strategy
    callables, faults, capture) disables deduplication for that spec.

    With ``project`` (the executor's path) the signature is then projected
    down to the components the strategy can actually evaluate, using the
    policy's structured ``dynamics_components`` split (absent method ⇒
    no projection, plain signature):

    * ``allows_spot == False`` — the scheduler never bids, never scans
      spot boundaries and never reverse-migrates: only the policy's name
      (which default result labels embed) survives;
    * ``allows_on_demand == False`` — the run can never sit on on-demand,
      so the reverse-migration threshold has no consuming code path:
      bids and the planned predicate survive, the reverse component is
      dropped.

    ``project=False`` gives the plain key, which only the unfused
    reference oracle (:func:`repro.testkit.oracles.unfused_vector_results`)
    dedupes on.
    """
    sig_fn = getattr(spec.bidding, "dynamics_signature", None)
    base = _dynamics_base(spec) if callable(sig_fn) else None
    if base is None:
        return None
    catalog_key, ods = base
    try:
        sig = sig_fn(ods)
        if sig is None:
            return None
        comp_fn = getattr(spec.bidding, "dynamics_components", None)
        if project and callable(comp_fn):
            strategy = spec.strategy()
            comp = comp_fn(ods)
            if not getattr(strategy, "allows_spot", True):
                sig = (comp["name"], "od-only")
            elif not getattr(strategy, "allows_on_demand", True):
                sig = (comp["name"], "spot-only", comp["bids"], comp["planned"])
    except Exception:
        return None
    return _dynamics_key(spec, catalog_key, sig)


def rank_projection(
    spec, catalog, ladders: Dict[tuple, np.ndarray]
) -> Optional[Tuple[tuple, Optional[Dict[Tuple[str, str], float]]]]:
    """Catalog-aware refinement of :func:`fused_dedupe_key`, or ``None``.

    A bidding policy's parameters reach the simulation *only* as
    thresholds in ``price <= x`` / ``price > x`` comparisons against a
    market's step-function trace (grants, revocation warnings, re-grant
    waits, candidate filters, planned/reverse predicates) — never in
    arithmetic. The trace takes finitely many price values, so two
    thresholds with no trace price strictly between them partition every
    instant identically and are *provably indistinguishable*: the runs
    they configure are byte-identical. This key therefore replaces each
    numeric threshold with its **rank** — the count of distinct trace
    prices at or below it — in the market's sorted price ladder, which
    collapses e.g. every proactive ``k`` whose bid lands in the same gap
    between trace spikes, and every reverse fraction below the market's
    lowest price plateau.

    Returns ``(key, reverse_thresholds)``. The key covers everything the
    run's dynamics depend on *except* the reverse-migration thresholds;
    those come back separately (``{(region, size): threshold}``), or
    ``None`` when the spec's strategy never evaluates the reverse
    predicate (od-only, pure-spot) so the key alone decides equivalence.
    Reverse thresholds are deliberately not rank-projected against the
    full price ladder: the executor matches them against the *observed
    reverse band* of an executed representative — the envelope of prices
    the trajectory actually compared — which collapses every threshold
    the run never discriminated, a strict superset of ladder-rank
    equality (see :func:`band_matches`).

    Requires the spec's catalog (the ladder is trace-derived), the same
    guards as :func:`fused_dedupe_key`, and a bidding policy exposing
    numeric ``*_thresholds`` in ``dynamics_components``. ``ladders`` is
    the caller's memo of sorted unique price arrays, keyed
    ``(catalog_key, region, size)``.
    """
    comp_fn = getattr(spec.bidding, "dynamics_components", None)
    base = _dynamics_base(spec) if callable(comp_fn) else None
    if base is None:
        return None
    catalog_key, ods = base
    try:
        from repro.traces.catalog import MarketKey

        markets = [MarketKey(r, s) for r in spec.regions for s in spec.sizes]
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

        strategy = spec.strategy()
        reverse: Optional[Dict[Tuple[str, str], float]] = None
        if not getattr(strategy, "allows_spot", True):
            sig = (comp["name"], "od-only")
        elif not getattr(strategy, "allows_on_demand", True):
            # Pure spot: the reverse predicate has no consuming code path.
            sig = (
                "ranks-spot",
                comp["name"],
                ranks(comp["bids"]),
                ranks(comp["planned_thresholds"]),
            )
        else:
            sig = (
                "ranks-rev",
                comp["name"],
                ranks(comp["bids"]),
                ranks(comp["planned_thresholds"]),
            )
            reverse = {
                (k.region, k.size): float(v)
                for k, v in zip(markets, comp["reverse_thresholds"])
            }
    except Exception:
        return None
    key = _dynamics_key(spec, catalog_key, sig)
    return None if key is None else (key, reverse)


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


def plan_fusion(
    specs: Sequence, pending: Sequence[int], engines: Sequence[str]
) -> Dict[int, int]:
    """Map each pending vector-routed twin to its executed representative.

    Submission order decides: the first spec of a projected dynamics class
    is its representative, every later one a twin. Twins are expanded
    from the representative's finished result, so a run is either
    executed or cloned, never both.
    """
    twin_of: Dict[int, int] = {}
    rep_of: Dict[tuple, int] = {}
    for i in pending:
        if engines[i] != "vector":
            continue
        key = fused_dedupe_key(specs[i])
        if key is None:
            continue
        rep = rep_of.setdefault(key, i)
        if rep != i:
            twin_of[i] = rep
    return twin_of
