"""Run a fleet: fan N service runs through ``run_batch``, assemble the
fleet report.

The fleet layer adds no execution machinery of its own — every service
run goes through :func:`repro.runtime.run_batch`, so fleets inherit the
process pool (``jobs``), the crash-safe run ledger (``ledger``/
``resume``), and ``engine="auto"`` vector/event routing unchanged. All
fleet-specific work (active-window proration, the shared spare pool, the
correlation summary) is deterministic post-processing of the batch's
results, which is why a :class:`~repro.fleet.report.FleetReport` is
byte-identical at any worker count and on either engine.

Churn is modeled by **steady-state proration**: a mid-horizon service is
simulated over the full horizon (keeping it on the shared catalog) and
its cost/downtime are scaled by the fraction of the horizon it was
active, while its forced migrations are filtered to the active window.
Rates (normalized cost %, unavailability %) are unaffected by proration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.report import (
    CorrelationReport,
    FleetReport,
    ServiceReport,
    SparePoolReport,
)
from repro.fleet.spares import SharedSparePool, concurrent_events
from repro.fleet.spec import FleetSpec
from repro.runtime import ExecutionOptions
from repro.units import SECONDS_PER_HOUR

__all__ = ["run_fleet"]


def run_fleet(
    spec: FleetSpec,
    *,
    execution: ExecutionOptions = ExecutionOptions(),
    verify: bool = False,
) -> FleetReport:
    """Simulate every service in ``spec`` and distil the fleet report.

    ``execution`` passes straight through to
    :func:`repro.runtime.run_batch`. ``verify=True`` additionally runs
    the fleet invariant oracles (:func:`repro.testkit.oracles.verify_fleet`)
    on the finished report and raises
    :class:`~repro.errors.InvariantViolation` if any fail.
    """
    # Looked up at call time, so a wrapper installed on repro.runtime sees it.
    from repro.runtime import run_batch

    batch = run_batch(
        list(spec.run_specs()), jobs=execution.jobs, engine=execution.engine,
        ledger=execution.ledger, resume=execution.resume,
    )
    results = list(batch.results)
    report = assemble_report(spec, results)
    if verify:
        # Imported lazily: the testkit builds on this module.
        from repro.testkit.oracles import verify_fleet

        verify_fleet(spec, report, results).raise_on_failure()
    return report


def assemble_report(spec: FleetSpec, results: Sequence) -> FleetReport:
    """Deterministic post-processing: batch results -> :class:`FleetReport`.

    Split out from :func:`run_fleet` so tests and oracles can re-derive a
    report from the same results without re-simulating.
    """
    if len(results) != len(spec.services):
        raise ConfigurationError(
            f"got {len(results)} results for {len(spec.services)} services"
        )
    horizon = spec.horizon_s

    # Forced-migration instants clipped to each service's active window.
    active_forced: List[Tuple[float, str]] = []
    per_service_forced: List[List[float]] = []
    for svc, res in zip(spec.services, results):
        a, d = spec.active_window(svc)
        times = [t for t in res.forced_times if a <= t < d]
        per_service_forced.append(times)
        active_forced.extend((t, svc.name) for t in times)

    pool = SharedSparePool(
        capacity=spec.spare_capacity,
        handover_window_s=spec.handover_window_s,
        quotas={svc.name: svc.spare_quota for svc in spec.services},
    )
    outcome = pool.replay(active_forced)
    # The sizing sweep over every service's forced migrations: the spares
    # an unbounded, quota-free pool would have needed at its peak.
    peak_forced = concurrent_events(
        [t for t, _ in active_forced], spec.handover_window_s
    )

    total_cost = 0.0
    baseline_cost = 0.0
    downtimes: List[float] = []
    service_reports: List[ServiceReport] = []
    meeting = 0
    for svc, res, times in zip(spec.services, results, per_service_forced):
        a, d = spec.active_window(svc)
        frac = (d - a) / horizon
        scale = frac * svc.weight
        cost = res.total_cost * scale
        base = res.baseline_cost * scale
        down = res.downtime_s * frac
        total_cost += cost
        baseline_cost += base
        downtimes.append(down)
        met = res.unavailability_percent <= 100.0 - svc.availability_target_percent
        meeting += met
        stats = outcome.per_service.get(svc.name)
        service_reports.append(ServiceReport(
            name=svc.name,
            label=res.label,
            strategy_kind=svc.strategy.kind,
            availability_target_percent=svc.availability_target_percent,
            arrival_s=a,
            departure_s=d,
            active_fraction=frac,
            cost=cost,
            baseline_cost=base,
            normalized_cost_percent=res.normalized_cost_percent,
            unavailability_percent=res.unavailability_percent,
            downtime_s=down,
            forced_migrations=len(times),
            target_met=bool(met),
            spare_quota=svc.spare_quota,
            spare_claims=stats.claims if stats else 0,
            spare_hits=stats.hits if stats else 0,
            spare_misses=stats.misses if stats else 0,
        ))

    down_arr = np.asarray(downtimes, dtype=float)
    norm = 100.0 * total_cost / baseline_cost if baseline_cost else 0.0
    return FleetReport(
        seed=spec.seed,
        horizon_hours=horizon / SECONDS_PER_HOUR,
        n_markets=spec.n_markets,
        n_services=len(spec.services),
        n_initial=sum(1 for s in spec.services if s.arrival_s == 0.0),
        n_arrived=sum(1 for s in spec.services if s.arrival_s > 0.0),
        n_departed=sum(
            1 for s in spec.services if spec.active_window(s)[1] < horizon
        ),
        total_cost=total_cost,
        baseline_cost=baseline_cost,
        normalized_cost_percent=norm,
        savings_percent=100.0 - norm,
        downtime_p50_s=float(np.percentile(down_arr, 50)),
        downtime_p99_s=float(np.percentile(down_arr, 99)),
        downtime_max_s=float(down_arr.max()),
        mean_unavailability_percent=float(np.mean(
            [r.unavailability_percent for r in results]
        )),
        services_meeting_target=int(meeting),
        spare_pool=SparePoolReport(
            capacity=outcome.capacity,
            handover_window_s=outcome.handover_window_s,
            claims=outcome.claims,
            hits=outcome.hits,
            misses=outcome.misses,
            quota_misses=outcome.quota_misses,
            exhausted_misses=outcome.exhausted_misses,
            hit_rate=outcome.hit_rate,
            peak_in_use=outcome.peak_in_use,
            unconstrained_requirement=peak_forced,
        ),
        correlation=_correlation(active_forced, spec.handover_window_s, peak_forced),
        services=tuple(service_reports),
    )


def _correlation(
    forced: List[Tuple[float, str]], window_s: float, peak: int
) -> CorrelationReport:
    """Summarise cross-service revocation correlation.

    ``peak`` (reported as ``peak_concurrent_forced``) is the sizing sweep
    over all instants; ``co_revocation_fraction`` counts forced migrations
    with at least one *other* service's forced migration within one
    handover window.
    """
    if not forced:
        return CorrelationReport(
            total_forced=0,
            peak_concurrent_forced=0,
            co_revocation_fraction=0.0,
            services_with_forced=0,
        )
    ordered = sorted(forced)
    times = [t for t, _ in ordered]
    names = [n for _, n in ordered]
    co = 0
    for i, (t, name) in enumerate(ordered):
        lo = bisect_left(times, t - window_s)
        hi = bisect_right(times, t + window_s)
        if any(names[j] != name for j in range(lo, hi) if j != i):
            co += 1
    return CorrelationReport(
        total_forced=len(ordered),
        peak_concurrent_forced=peak,
        co_revocation_fraction=co / len(ordered),
        services_with_forced=len(set(names)),
    )
