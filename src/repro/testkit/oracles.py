"""Post-run invariant oracles: does a finished simulation's book balance?

Each oracle audits one conservation law of the completed
:class:`~repro.core.simulation.SimStack` against the distilled
:class:`~repro.core.results.SimulationResult`:

* **billing** — every ledger entry is a start-of-hour charge at the spot
  price then in force (Section 2.1's "billed ... based on the spot price at
  the beginning of each hour"), revoked partial hours are free, on-demand
  hours bill at the fixed on-demand price, and the per-kind totals add up
  to the reported cost;
* **availability** — the observation window sits inside the horizon,
  blackout intervals are disjoint and inside the window, and uptime plus
  blackout time exactly covers the window;
* **placement** — the placement timeline is ordered, non-overlapping, and
  yields the reported spot-time fraction;
* **metrics** — the :mod:`repro.obs` registry agrees with the results
  report (migration counters, spend, summary gauges);
* **determinism** — equal seeds and equal ``jobs`` produce byte-identical
  reports (:func:`check_rerun_determinism`, :func:`check_jobs_determinism`).

:func:`unfused_vector_results` is the per-run reference the batch
executor's cross-run dedupe is checked (and benchmarked) against.

The ``naive_*`` functions are the O(n) reference answers to every
:class:`~repro.traces.trace.PriceTrace` query. The compiled query plan
(:mod:`repro.traces.compiled`) must return the bit-identical float each
one returns; ``tests/props/test_compiled_equivalence.py`` holds it to that.

Run them via ``run_simulation(spec, verify=True)``, :func:`run_verified`,
or the ``repro-verify`` CLI.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import MIGRATION_COUNTERS
from repro.errors import InvariantViolation, TraceFormatError
from repro.traces.catalog import MarketKey
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "OracleCheck",
    "OracleReport",
    "verify_stack",
    "run_verified",
    "check_rerun_determinism",
    "check_jobs_determinism",
    "unfused_vector_results",
    "check_spare_pool",
    "verify_fleet",
    "naive_price_at",
    "naive_next_change_after",
    "naive_segments",
    "naive_segment_durations",
    "naive_mean_price",
    "naive_price_std",
    "naive_time_above",
    "naive_max_price",
    "naive_min_price",
    "naive_crossings_above",
    "naive_crossings_below",
    "naive_first_time_above",
    "naive_first_time_at_or_below",
]

#: Tolerance for comparing recomputed sums of floats (order-of-addition
#: differences only; any real accounting bug is far larger).
REL_TOL = 1e-9
ABS_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@dataclass(frozen=True)
class OracleCheck:
    """One oracle's verdict."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


@dataclass
class OracleReport:
    """All oracle verdicts for one run."""

    checks: List[OracleCheck] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(OracleCheck(name=name, passed=passed, detail=detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[OracleCheck]:
        return [c for c in self.checks if not c.passed]

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.InvariantViolation` if any check failed."""
        if not self.passed:
            lines = [str(c) for c in self.failures]
            raise InvariantViolation(
                f"{len(lines)} invariant check(s) failed:\n" + "\n".join(lines),
                failures=lines,
            )

    def summary(self) -> str:
        """Multi-line human rendering of every check."""
        return "\n".join(str(c) for c in self.checks)


def _market_key(market: str) -> MarketKey:
    region, _, size = market.partition("/")
    return MarketKey(region=region, size=size)


# --------------------------------------------------------------------- oracles
def _check_billing(report: OracleReport, stack, result) -> None:
    ledger = stack.scheduler.ledger
    catalog = stack.catalog
    bad: List[str] = []
    for e in ledger.entries:
        key = _market_key(e.market)
        if e.kind == "spot":
            expected_rate = float(catalog.trace(key).price_at(e.time))
            if not _close(e.rate, expected_rate):
                bad.append(
                    f"spot hour at t={e.time:.0f} in {e.market} billed at rate "
                    f"{e.rate:.6f}, trace says {expected_rate:.6f}"
                )
            if e.note == "revoked-free":
                if e.amount != 0.0:
                    bad.append(f"revoked partial hour at t={e.time:.0f} charged {e.amount:.6f}")
            elif not _close(e.amount, e.rate):
                bad.append(
                    f"spot hour at t={e.time:.0f} charged {e.amount:.6f} != rate {e.rate:.6f}"
                )
        elif e.kind == "on_demand":
            expected_rate = catalog.on_demand_price(key)
            if not _close(e.rate, expected_rate):
                bad.append(
                    f"on-demand hour at t={e.time:.0f} in {e.market} billed at "
                    f"{e.rate:.6f}, price table says {expected_rate:.6f}"
                )
            if not _close(e.amount, e.rate):
                bad.append(f"on-demand hour at t={e.time:.0f} not charged in full")
        else:
            bad.append(f"unknown lease kind {e.kind!r} at t={e.time:.0f}")
    report.add(
        "billing.start-of-hour-rates",
        not bad,
        "; ".join(bad[:3]) + (f" (+{len(bad) - 3} more)" if len(bad) > 3 else ""),
    )

    entry_total = sum(e.amount for e in ledger.entries)
    report.add(
        "billing.ledger-total",
        _close(entry_total, result.total_cost),
        f"entries sum to {entry_total:.6f}, report says {result.total_cost:.6f}",
    )
    report.add(
        "billing.kind-split",
        _close(ledger.total_by_kind("spot"), result.spot_cost)
        and _close(ledger.total_by_kind("on_demand"), result.on_demand_cost)
        and _close(result.spot_cost + result.on_demand_cost, result.total_cost),
        f"spot {result.spot_cost:.6f} + on-demand {result.on_demand_cost:.6f} "
        f"vs total {result.total_cost:.6f}",
    )


def _check_availability(report: OracleReport, stack, result) -> None:
    avail = stack.scheduler.availability
    horizon = stack.scheduler.horizon
    if avail.window_start is None or avail.window_end is None:
        report.add("availability.window", False, "observation window never opened/closed")
        return
    report.add(
        "availability.window",
        0.0 <= avail.window_start <= avail.window_end <= horizon + ABS_TOL,
        f"window [{avail.window_start:.0f}, {avail.window_end:.0f}) "
        f"vs horizon {horizon:.0f}",
    )
    ivs = sorted(avail.downtime, key=lambda iv: iv.start)
    disjoint = all(a.end <= b.start + ABS_TOL for a, b in zip(ivs, ivs[1:]))
    in_window = all(
        avail.window_start - ABS_TOL <= iv.start and iv.end <= avail.window_end + ABS_TOL
        for iv in ivs
    )
    report.add(
        "availability.blackouts-disjoint",
        disjoint and in_window,
        f"{len(ivs)} blackout intervals",
    )
    # Conservation: uptime + blackout time covers the window exactly.
    downtime = avail.total_downtime()
    uptime = avail.window_duration - downtime
    report.add(
        "availability.conservation",
        uptime >= -ABS_TOL and _close(uptime + downtime, avail.window_duration),
        f"uptime {uptime:.1f}s + downtime {downtime:.1f}s "
        f"vs window {avail.window_duration:.1f}s",
    )
    report.add(
        "availability.report-agreement",
        _close(result.downtime_s, downtime)
        and _close(result.unavailability_percent, avail.unavailability_percent())
        and _close(sum(result.downtime_by_cause.values()), downtime),
        f"report downtime {result.downtime_s:.1f}s vs tracker {downtime:.1f}s",
    )


def _check_placement(report: OracleReport, stack, result) -> None:
    scheduler = stack.scheduler
    log = scheduler.placement_log
    ordered = all(r.end > r.start for r in log) and all(
        a.end <= b.start + ABS_TOL for a, b in zip(log, log[1:])
    )
    in_horizon = all(
        -ABS_TOL <= r.start and r.end <= scheduler.horizon + ABS_TOL for r in log
    )
    report.add(
        "placement.timeline",
        ordered and in_horizon,
        f"{len(log)} tenures over {scheduler.horizon / SECONDS_PER_HOUR:.0f}h",
    )
    report.add(
        "placement.spot-fraction",
        _close(result.spot_time_fraction, scheduler.spot_time_fraction()),
        f"report {result.spot_time_fraction:.6f} "
        f"vs log {scheduler.spot_time_fraction():.6f}",
    )


def _check_metrics(report: OracleReport, stack, result) -> None:
    m = stack.scheduler.metrics

    def counter(name: str) -> float:
        c = m.counters.get(name)
        return c.value if c is not None else 0.0

    bad = []
    for name, kinds in MIGRATION_COUNTERS.items():
        total = sum(counter(f"migrations.{kind}") for kind in kinds)
        if not _close(total, getattr(result, name)):
            bad.append(f"migrations.{'+'.join(kinds)}: metric {total:g} vs {name} "
                       f"{getattr(result, name)}")
    report.add("metrics.migration-counters", not bad, "; ".join(bad))

    spend = sum(c.value for name, c in m.counters.items() if name.startswith("spend_usd."))
    report.add(
        "metrics.spend-total",
        _close(spend, result.total_cost),
        f"spend_usd.* sums to {spend:.6f}, report says {result.total_cost:.6f}",
    )

    gauges = [
        ("total_cost_usd", result.total_cost),
        ("normalized_cost_percent", result.normalized_cost_percent),
        ("unavailability_percent", result.unavailability_percent),
        ("spot_time_fraction", result.spot_time_fraction),
    ]
    bad = []
    for name, expected in gauges:
        g = m.gauges.get(name)
        if g is None or not _close(g.value, expected):
            bad.append(f"{name}: gauge {'missing' if g is None else g.value} vs {expected}")
    report.add("metrics.summary-gauges", not bad, "; ".join(bad))


def verify_stack(stack, result) -> OracleReport:
    """Audit a completed stack against its distilled result.

    Parameters
    ----------
    stack:
        A :class:`~repro.core.simulation.SimStack` whose scheduler has run
        to the horizon.
    result:
        The matching :class:`~repro.core.results.SimulationResult` (from
        :func:`~repro.core.simulation.summarize_stack`).
    """
    report = OracleReport()
    _check_billing(report, stack, result)
    _check_availability(report, stack, result)
    _check_placement(report, stack, result)
    _check_metrics(report, stack, result)
    return report


# ------------------------------------------------------------------ entry points
def run_verified(spec, sink=None):
    """Run one simulation and audit it; returns ``(ObservedRun, OracleReport)``.

    Unlike ``run_simulation(spec, verify=True)`` this never raises on a
    red check — callers inspect (or render) the report themselves.
    """
    from repro.core.simulation import ObservedRun, build_stack, summarize_stack
    from repro.obs.sinks import NULL_SINK

    stack = build_stack(spec, sink=sink if sink is not None else NULL_SINK)
    stack.scheduler.run()
    result = summarize_stack(stack)
    report = verify_stack(stack, result)
    observed = ObservedRun(
        result=result,
        fired_events=stack.engine.fired_count,
        metrics=stack.scheduler.metrics,
    )
    return observed, report


def check_rerun_determinism(spec, report: Optional[OracleReport] = None) -> OracleReport:
    """Run ``spec`` twice and check the reports are byte-identical.

    Results are compared field-for-field (dataclass equality — exact float
    equality, not tolerance) and the metric registries via their dict
    snapshots.
    """
    from repro.core.simulation import run_simulation_observed

    report = report if report is not None else OracleReport()
    first = run_simulation_observed(spec)
    second = run_simulation_observed(spec)
    report.add(
        "determinism.rerun-results",
        first.result == second.result,
        f"seed {spec.seed}",
    )
    report.add(
        "determinism.rerun-metrics",
        first.metrics.to_dict() == second.metrics.to_dict(),
        f"seed {spec.seed}",
    )
    return report


def check_jobs_determinism(
    spec,
    seeds: Sequence[int],
    jobs: int = 4,
    report: Optional[OracleReport] = None,
) -> OracleReport:
    """Check ``run_many`` is byte-identical serial vs ``jobs`` workers."""
    from repro.core.simulation import run_many
    from repro.runtime import ExecutionOptions

    report = report if report is not None else OracleReport()
    serial = run_many(spec, list(seeds))
    parallel = run_many(spec, list(seeds), execution=ExecutionOptions(jobs=jobs))
    mismatches = [
        f"seed {s}" for s, a, b in zip(seeds, serial, parallel) if a != b
    ]
    report.add(
        "determinism.jobs",
        not mismatches,
        f"jobs=1 vs jobs={jobs} over {len(list(seeds))} seeds"
        + (f"; mismatched: {', '.join(mismatches)}" if mismatches else ""),
    )
    return report


def _twin_key(spec) -> Optional[object]:
    """Plain dynamics identity of one spec, or ``None``: the spec itself
    with its label cleared and its bidding policy replaced by the policy's
    frozen ``dynamics_components`` — no rank projection, no capability
    projection, and every other field compared as it is. ``None`` under
    the same guards as :func:`~repro.runtime.fused.dynamics_key`."""
    from repro.traces.calibration import on_demand_price

    comp_fn = getattr(spec.bidding, "dynamics_components", None)
    if (
        spec.catalog_key() is None
        or not callable(comp_fn)
        or spec.faults is not None
        or spec.calibrations is not None
    ):
        return None
    comp = comp_fn(
        tuple(on_demand_price(r, s) for r in spec.regions for s in spec.sizes)
    )
    key = replace(spec, label="", bidding=tuple(sorted(comp.items())))
    try:
        hash(key)
    except TypeError:
        # Unhashable spec arguments (``StrategySpec.of(kind, [list])``).
        return None
    return key


def unfused_vector_results(specs, cache=None) -> List:
    """Results of ``specs`` run one by one on the vector engine.

    The reference for the executor's cross-run dedupe: every spec runs
    through :func:`~repro.core.simulation.run_simulation_observed` with
    ``engine="vector"`` on its cached catalog, except plain dynamics twins
    (equal catalog key, configuration and ``dynamics_components``; no rank
    or band matching), which clone their first occurrence under their own
    label.
    """
    from repro.core.simulation import run_simulation_observed
    from repro.runtime.cache import shared_catalog_cache

    if cache is None:
        cache = shared_catalog_cache()
    results: List = []
    first_of: dict = {}
    for spec in specs:
        key = _twin_key(spec)
        if key is not None and key in first_of:
            rep = first_of[key]
            results.append(replace(rep, label=spec.label or rep.label))
            continue
        catalog_key = spec.catalog_key()
        catalog = cache.get_or_build(catalog_key)[0] if catalog_key is not None else None
        result = run_simulation_observed(spec, engine="vector", catalog=catalog).result
        if key is not None:
            first_of[key] = result
        results.append(result)
    return results


# ------------------------------------------------------------- fleet oracles
def check_spare_pool(outcome, quotas, default_quota: int = 1) -> OracleReport:
    """Conservation invariants of one shared spare pool's event log.

    Independently replays the :class:`~repro.fleet.spares.SparePoolOutcome`
    event log and checks: spares in use never exceed the pool capacity, no
    service ever holds more than its quota (no double-grant past the cap),
    claim accounting balances (hits + misses == claims, per-service stats
    sum to the totals), and the recorded peak matches the replay.
    """
    report = OracleReport()
    capacity = outcome.capacity
    window = outcome.handover_window_s
    held: dict = {}
    releases: List[Tuple[float, str]] = []
    in_use = 0
    peak = 0
    bad_capacity: List[str] = []
    bad_quota: List[str] = []
    bad_log: List[str] = []
    last_t = None
    for ev in outcome.events:
        if last_t is not None and ev.t < last_t:
            bad_log.append(f"event log goes backwards at t={ev.t:.0f}")
        last_t = ev.t
        while releases and releases[0][0] <= ev.t:
            _, done = heapq.heappop(releases)
            held[done] -= 1
            in_use -= 1
        if ev.granted:
            quota = quotas.get(ev.service, default_quota)
            if held.get(ev.service, 0) >= quota:
                bad_quota.append(
                    f"{ev.service} granted a {held.get(ev.service, 0) + 1}th "
                    f"spare at t={ev.t:.0f} over quota {quota}"
                )
            if in_use >= capacity:
                bad_capacity.append(
                    f"grant at t={ev.t:.0f} with {in_use}/{capacity} already in use"
                )
            held[ev.service] = held.get(ev.service, 0) + 1
            in_use += 1
            peak = max(peak, in_use)
            heapq.heappush(releases, (ev.t + window, ev.service))
        if ev.in_use_after != in_use:
            bad_log.append(
                f"t={ev.t:.0f}: log says {ev.in_use_after} in use, replay says {in_use}"
            )
    report.add(
        "spare-pool.capacity", not bad_capacity, "; ".join(bad_capacity[:3])
    )
    report.add("spare-pool.quota", not bad_quota, "; ".join(bad_quota[:3]))
    report.add("spare-pool.log-consistent", not bad_log, "; ".join(bad_log[:3]))
    hits = sum(1 for ev in outcome.events if ev.granted)
    misses = len(outcome.events) - hits
    report.add(
        "spare-pool.accounting",
        hits == outcome.hits
        and misses == outcome.misses
        and outcome.hits + outcome.misses == outcome.claims
        and outcome.quota_misses + outcome.exhausted_misses == outcome.misses
        and peak == outcome.peak_in_use,
        f"hits {outcome.hits} + misses {outcome.misses} vs claims "
        f"{outcome.claims}; peak {outcome.peak_in_use} vs replay {peak}",
    )
    per_claims = sum(s.claims for s in outcome.per_service.values())
    per_hits = sum(s.hits for s in outcome.per_service.values())
    report.add(
        "spare-pool.per-service-split",
        per_claims == outcome.claims and per_hits == outcome.hits,
        f"per-service claims {per_claims}/{outcome.claims}, "
        f"hits {per_hits}/{outcome.hits}",
    )
    return report


def verify_fleet(spec, fleet_report, results=None) -> OracleReport:
    """Audit a :class:`~repro.fleet.report.FleetReport` against its spec.

    Checks report-internal accounting (service rows sum to the fleet
    totals, cohort counts add up, target bookkeeping matches) and — when
    the per-service ``results`` are provided — replays the shared spare
    pool from the raw forced-migration instants and runs
    :func:`check_spare_pool` on its event log, then cross-checks the
    report's spare-pool numbers against the independent replay.
    """
    report = OracleReport()
    services = fleet_report.services
    report.add(
        "fleet.cohort-counts",
        fleet_report.n_services == len(spec.services) == len(services)
        and fleet_report.n_initial + fleet_report.n_arrived == fleet_report.n_services,
        f"{fleet_report.n_initial} initial + {fleet_report.n_arrived} arrived "
        f"vs {fleet_report.n_services} services",
    )
    cost_sum = sum(s.cost for s in services)
    base_sum = sum(s.baseline_cost for s in services)
    report.add(
        "fleet.cost-rollup",
        _close(cost_sum, fleet_report.total_cost)
        and _close(base_sum, fleet_report.baseline_cost),
        f"service costs sum to {cost_sum:.6f} vs total {fleet_report.total_cost:.6f}",
    )
    norm = 100.0 * fleet_report.total_cost / fleet_report.baseline_cost \
        if fleet_report.baseline_cost else 0.0
    report.add(
        "fleet.normalized-cost",
        _close(norm, fleet_report.normalized_cost_percent)
        and _close(
            fleet_report.savings_percent, 100.0 - fleet_report.normalized_cost_percent
        ),
        f"recomputed {norm:.6f}% vs {fleet_report.normalized_cost_percent:.6f}%",
    )
    met = sum(1 for s in services if s.target_met)
    report.add(
        "fleet.targets",
        met == fleet_report.services_meeting_target,
        f"{met} rows marked met vs {fleet_report.services_meeting_target}",
    )
    claims = sum(s.spare_claims for s in services)
    hits = sum(s.spare_hits for s in services)
    sp = fleet_report.spare_pool
    report.add(
        "fleet.spare-rollup",
        claims == sp.claims and hits == sp.hits,
        f"service rows: {claims} claims / {hits} hits vs pool "
        f"{sp.claims} / {sp.hits}",
    )
    if results is not None:
        from repro.fleet.spares import SharedSparePool

        claims_seq: List[Tuple[float, str]] = []
        for svc, res in zip(spec.services, results):
            a, d = spec.active_window(svc)
            claims_seq.extend(
                (t, svc.name) for t in res.forced_times if a <= t < d
            )
        pool = SharedSparePool(
            capacity=spec.spare_capacity,
            handover_window_s=spec.handover_window_s,
            quotas={svc.name: svc.spare_quota for svc in spec.services},
        )
        outcome = pool.replay(claims_seq)
        quotas = {svc.name: svc.spare_quota for svc in spec.services}
        for check in check_spare_pool(outcome, quotas).checks:
            report.checks.append(check)
        report.add(
            "fleet.spare-replay",
            outcome.claims == sp.claims
            and outcome.hits == sp.hits
            and outcome.misses == sp.misses
            and outcome.peak_in_use == sp.peak_in_use,
            f"replay {outcome.claims}/{outcome.hits}/{outcome.misses} "
            f"vs report {sp.claims}/{sp.hits}/{sp.misses}",
        )
    return report


# ------------------------------------------------------ price-trace oracles
def _window(trace, t0: Optional[float], t1: Optional[float]) -> Tuple[float, float]:
    return (trace.start if t0 is None else t0, trace.horizon if t1 is None else t1)


def naive_price_at(trace, t):
    """Price in force at time(s) ``t``: one ``searchsorted`` over all times,
    clamped to the first and last segment."""
    arr = np.asarray(t, dtype=np.float64)
    idx = trace.times.searchsorted(arr, side="right")
    last = len(trace) - 1
    if arr.ndim == 0:
        return float(trace.prices[min(max(int(idx) - 1, 0), last)])
    return trace.prices[np.clip(idx - 1, 0, last)]


def naive_next_change_after(trace, t: float) -> Optional[float]:
    """First change time strictly after ``t``, or ``None``."""
    idx = int(np.searchsorted(trace.times, t, side="right"))
    if idx >= len(trace.times):
        return None
    return float(trace.times[idx])


def naive_segments(trace, t0: Optional[float] = None, t1: Optional[float] = None):
    """Python-loop ``(seg_start, seg_end, price)`` segments covering ``[t0, t1)``."""
    lo = trace.start if t0 is None else max(t0, trace.start)
    hi = trace.horizon if t1 is None else min(t1, trace.horizon)
    if hi <= lo:
        return
    bounds = np.concatenate([trace.times, [trace.horizon]])
    n = len(trace.times)
    i = int(np.clip(np.searchsorted(trace.times, lo, side="right") - 1, 0, n - 1))
    while i < n and bounds[i] < hi:
        seg_lo = max(float(bounds[i]), lo)
        seg_hi = min(float(bounds[i + 1]), hi)
        if seg_hi > seg_lo:
            yield (seg_lo, seg_hi, float(trace.prices[i]))
        i += 1


def naive_segment_durations(trace, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
    """(durations, prices) of the segments clipped to ``[t0, t1)``, by
    clipping the *full* bounds array — O(n) per call."""
    bounds = np.concatenate([trace.times, [trace.horizon]])
    lo = np.clip(bounds[:-1], t0, t1)
    hi = np.clip(bounds[1:], t0, t1)
    dur = hi - lo
    mask = dur > 0
    return dur[mask], trace.prices[mask]


def naive_mean_price(trace, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
    """Time-weighted mean price over ``[t0, t1)`` (default: whole trace)."""
    a, b = _window(trace, t0, t1)
    dur, prices = naive_segment_durations(trace, a, b)
    total = dur.sum()
    if total <= 0:
        raise TraceFormatError(f"empty window [{a}, {b})")
    return float(np.dot(dur, prices) / total)


def naive_price_std(trace, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
    """Time-weighted price standard deviation over the window."""
    a, b = _window(trace, t0, t1)
    dur, prices = naive_segment_durations(trace, a, b)
    total = dur.sum()
    if total <= 0:
        raise TraceFormatError(f"empty window [{a}, {b})")
    mean = np.dot(dur, prices) / total
    var = np.dot(dur, (prices - mean) ** 2) / total
    return float(np.sqrt(max(var, 0.0)))


def naive_time_above(
    trace, threshold: float, t0: Optional[float] = None, t1: Optional[float] = None
) -> float:
    """Seconds in the window during which price > ``threshold``."""
    a, b = _window(trace, t0, t1)
    dur, prices = naive_segment_durations(trace, a, b)
    return float(dur[prices > threshold].sum())


def naive_max_price(trace, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
    """Maximum price attained in the window."""
    a, b = _window(trace, t0, t1)
    dur, prices = naive_segment_durations(trace, a, b)
    if prices.size == 0:
        raise TraceFormatError(f"empty window [{a}, {b})")
    return float(prices.max())


def naive_min_price(trace, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
    """Minimum price attained in the window."""
    a, b = _window(trace, t0, t1)
    dur, prices = naive_segment_durations(trace, a, b)
    if prices.size == 0:
        raise TraceFormatError(f"empty window [{a}, {b})")
    return float(prices.min())


def naive_crossings_above(trace, threshold: float) -> np.ndarray:
    """Change times where the price rises above ``threshold`` (the trace
    start counts when the trace opens above it)."""
    above = trace.prices > threshold
    rising = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    out = trace.times[rising]
    if above[0]:
        out = np.concatenate([[trace.times[0]], out])
    return out


def naive_crossings_below(trace, threshold: float) -> np.ndarray:
    """Change times where the price falls to or below ``threshold``."""
    above = trace.prices > threshold
    falling = np.flatnonzero(~above[1:] & above[:-1]) + 1
    return trace.times[falling]


def naive_first_time_above(trace, threshold: float, from_t: float) -> Optional[float]:
    """Earliest time >= ``from_t`` with price > ``threshold``, or ``None``:
    rebuilds the whole crossing mask on every call."""
    if from_t >= trace.horizon:
        return None
    if float(naive_price_at(trace, from_t)) > threshold:
        return max(from_t, trace.start)
    cross = naive_crossings_above(trace, threshold)
    later = cross[cross > from_t]
    if later.size == 0:
        return None
    return float(later[0])


def naive_first_time_at_or_below(trace, threshold: float, from_t: float) -> Optional[float]:
    """Earliest time >= ``from_t`` with price <= ``threshold``, or ``None``."""
    if from_t >= trace.horizon:
        return None
    if float(naive_price_at(trace, from_t)) <= threshold:
        return max(from_t, trace.start)
    cross = naive_crossings_below(trace, threshold)
    later = cross[cross > from_t]
    if later.size == 0:
        return None
    return float(later[0])
