"""Cross-run fusion: one boundary-scan array program for a whole group.

The vector engine (:mod:`repro.runtime.vector`) made a *single* run scan
its no-action boundary epochs as NumPy comparisons — but a policy sweep
runs hundreds of variants over the same compiled catalog, and each of
them re-derived the identical ``anchor + k·3600 − lead`` check instants
and re-bisected the identical compiled-trace price tables. This module
removes that cross-run redundancy without touching a single decision:

* :func:`fused_dedupe_key` extends PR 6's dynamics-signature dedupe with
  *capability-aware projection*: a strategy that can never leave spot
  never evaluates the bidding policy's reverse threshold, and an
  on-demand-only strategy never evaluates bids at all — so the projected
  key drops exactly the parameters the scheduler provably never reads,
  collapsing whole axes of a sweep into one executed representative
  (byte-identical by construction: the dropped parameters have no code
  path that could observe them).
* :class:`FusedScanContext` is a fusion group's shared boundary-window
  cache. Runs whose decision histories have not yet diverged request the
  same ``(trace, anchor, lead)`` rows; the context materialises each row
  once — the same elementwise check/price floats every run would have
  computed — and serves zero-copy slices. Divergent runs (different
  tenure anchors after their first differing decision) simply miss the
  cache and fall back to run-local lookups: per-run divergence handling
  *is* the miss path, so results cannot depend on group composition.
* :func:`plan_fusion` turns one catalog unit of pending runs into
  twin/representative assignments plus a shared scan context for the
  executor's unit loop.

Everything here is an optimisation layer over the per-run engines;
``--engine fused`` therefore inherits the vector engine's bit-identity
contract, enforced by the golden corpus and the fused==vector==event
hypothesis property in ``tests/runtime/test_fused_engine.py``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.units import SECONDS_PER_HOUR

__all__ = [
    "FusedScanContext",
    "FusionPlan",
    "band_matches",
    "fused_dedupe_key",
    "plan_fusion",
    "rank_projection",
]

#: Total floats a context may pin across its boundary tables (checks and
#: prices each); past the budget, requests simply miss and the run
#: computes locally. 2M entries ≈ 32 MiB of row cache per fusion group.
_TABLE_BUDGET = 2_000_000


class _BoundaryTable:
    """Grown row cache for one ``(trace, anchor, lead)`` tenure timeline.

    Rows grow upward only: aligned runs re-request the same geometrically
    growing windows starting at the tenure's first boundary index, so a
    request below the table's origin (or past the context budget) is
    served by the caller's run-local fallback instead.
    """

    __slots__ = ("trace", "anchor", "lead", "k0", "checks", "prices", "n")

    def __init__(self, trace, anchor: float, lead: float, k0: int) -> None:
        self.trace = trace
        self.anchor = anchor
        self.lead = lead
        self.k0 = k0
        self.n = 0
        self.checks: Optional[np.ndarray] = None
        self.prices: Optional[np.ndarray] = None

    def grow_to(self, n: int) -> int:
        """Extend the cached rows to cover ``n`` entries; returns the
        number of new entries materialised."""
        if n <= self.n:
            return 0
        # First materialisation is sized exactly to the request: on a
        # heterogeneous group most admitted tables serve only a couple of
        # small windows, so a minimum-row floor would overshoot for rows
        # nobody reads. Doubling kicks in once the table proves reuse.
        new_n = n if self.n == 0 else max(n, 2 * self.n, 64)
        ks = np.arange(self.k0 + self.n, self.k0 + new_n, dtype=np.float64)
        checks = self.anchor + ks * SECONDS_PER_HOUR - self.lead
        prices = np.asarray(self.trace.price_at(checks), dtype=np.float64)
        if self.n:
            checks = np.concatenate([self.checks, checks])
            prices = np.concatenate([self.prices, prices])
        checks.setflags(write=False)
        prices.setflags(write=False)
        added = new_n - self.n
        self.checks, self.prices, self.n = checks, prices, new_n
        return added


class FusedScanContext:
    """Shared boundary-window price rows for one fusion group.

    One instance is attached (via the ``fused`` scheduler kwarg) to every
    executed run of a group sharing a trace catalog. Tables are keyed by
    trace *identity* — a faulted provider that wraps or replaces a trace
    can never alias a clean run's rows — plus the tenure's
    ``(anchor, lead)`` timeline, which aligned runs share exactly until
    their first divergent decision.
    """

    __slots__ = ("_tables", "_seen", "_budget", "hits", "misses")

    def __init__(self, budget: int = _TABLE_BUDGET) -> None:
        self._tables: Dict[tuple, _BoundaryTable] = {}
        #: Two-touch admission: timeline keys requested exactly once. Most
        #: keys on a heterogeneous group are never requested twice (runs
        #: diverge, anchors don't align), so materialising a table on
        #: first touch would pay doubling-overshoot lookups for rows
        #: nobody re-reads. The first request goes run-local; a table is
        #: built only when the same timeline comes back.
        self._seen: set = set()
        self._budget = budget
        self.hits = 0
        self.misses = 0

    def prices(
        self, trace, anchor: float, lead: float, k_lo: int, checks: np.ndarray
    ) -> Optional[np.ndarray]:
        """Price row for boundary indices ``[k_lo, k_lo + len(checks))``.

        Returns a read-only view bit-identical to
        ``trace.price_at(checks)``, or ``None`` when the request cannot
        be served from the cache (table origin above ``k_lo``, budget
        exhausted) — the caller then computes run-locally.
        """
        key = (id(trace), anchor, lead)
        table = self._tables.get(key)
        if table is None:
            if self._budget <= 0 or key not in self._seen:
                self._seen.add(key)
                self.misses += 1
                return None
            table = self._tables[key] = _BoundaryTable(trace, anchor, lead, k_lo)
        elif k_lo < table.k0:
            self.misses += 1
            return None
        n = checks.shape[0]
        off = k_lo - table.k0
        end = off + n
        if end > table.n:
            if self._budget <= 0:
                self.misses += 1
                return None
            self._budget -= table.grow_to(end)
        # Belt and braces: the row must be the caller's exact floats.
        if table.checks[off] != checks[0]:  # pragma: no cover
            self.misses += 1
            return None
        self.hits += 1
        return table.prices[off:end]


@dataclass
class FusionPlan:
    """The executor's fusion assignment for one unit of pending runs."""

    #: Twin run index -> its executed representative's index. Twins are
    #: expanded from the representative's finished result — strictly
    #: *after* fused evaluation, never double-counted as fused runs.
    twin_of: Dict[int, int] = field(default_factory=dict)
    #: Executed run index -> the shared scan context of its fusion group.
    context_of: Dict[int, FusedScanContext] = field(default_factory=dict)
    #: Number of multi-run fusion groups (shared contexts created).
    groups: int = 0

    def validate(self) -> "FusionPlan":
        # The invariant the executor relies on: a run is a dedupe twin
        # or a fused group member, never both — `deduped_runs` and
        # `fused_runs` partition cleanly, and twins expand only after
        # their representative's fused evaluation has finished.
        overlap = set(self.twin_of) & set(self.context_of)
        assert not overlap, f"runs {sorted(overlap)} both deduped and fused"
        return self


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

    With ``project`` (the fused path) the signature is then projected
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
    specs: Sequence, pending: Sequence[int], engines: Sequence[str], fuse: bool = True
) -> FusionPlan:
    """Assign the pending vector-routed runs to twins and groups.

    Dedupe first — submission order, first spec of a dynamics class is
    its representative — then group the runs that will actually execute
    by catalog key; every group of two or more shares one
    :class:`FusedScanContext`. Faulted and trace-capturing runs never
    join a group (their providers may overlay market behaviour), and
    runs without a catalog key have nothing to share. With ``fuse``
    false (the unfused ``"vector"`` reference path) keys are not
    projected and no contexts are created.
    """
    plan = FusionPlan()
    rep_of: Dict[tuple, int] = {}
    by_catalog: Dict[object, List[int]] = {}
    for i in pending:
        if engines[i] != "vector":
            continue
        spec = specs[i]
        key = fused_dedupe_key(spec, project=fuse)
        if key is not None:
            rep = rep_of.get(key)
            if rep is not None:
                plan.twin_of[i] = rep
                continue
            rep_of[key] = i
        if fuse and spec.faults is None and not spec.capture_trace:
            catalog_key = spec.catalog_key()
            if catalog_key is not None:
                by_catalog.setdefault(catalog_key, []).append(i)
    for members in by_catalog.values():
        if len(members) < 2:
            continue
        ctx = FusedScanContext()
        plan.groups += 1
        for i in members:
            plan.context_of[i] = ctx
    return plan.validate()
