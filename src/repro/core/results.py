"""Simulation result records and cross-seed aggregation.

The paper reports each metric as a mean over simulation runs seeded with
different trace samples (Section 4.1); :func:`aggregate` reproduces that
reduction and also exposes the spread, which EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import SchedulingError

__all__ = ["MIGRATION_COUNTERS", "SimulationResult", "AggregateResult", "aggregate"]

#: The migration kinds each :class:`SimulationResult` counter counts (the
#: Remus pair's included); forced kinds also feed ``forced_times``.
MIGRATION_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "forced_migrations": ("forced", "failover", "unprotected-restore"),
    "planned_migrations": ("planned", "spot-switch", "planned-failover", "reopt-failover"),
    "reverse_migrations": ("reverse",),
    "outages": ("outage",),
}


@dataclass(frozen=True)
class SimulationResult:
    """Metrics of one scheduler run on one trace sample."""

    label: str
    seed: int
    duration_hours: float
    total_cost: float
    baseline_cost: float
    normalized_cost_percent: float
    unavailability_percent: float
    downtime_s: float
    degraded_s: float
    forced_migrations: int
    planned_migrations: int  #: planned moves (see :data:`MIGRATION_COUNTERS`)
    reverse_migrations: int
    outages: int  #: pure-spot dark periods
    spot_cost: float
    on_demand_cost: float
    spot_time_fraction: float = 0.0  #: share of tenure spent on spot leases
    downtime_by_cause: Dict[str, float] = field(default_factory=dict)
    #: Start instants (simulation seconds) of every forced migration, in
    #: event order. The fleet layer sizes shared warm-spare pools from the
    #: cross-service concurrency of these instants (:mod:`repro.fleet`).
    forced_times: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # JSON/ledger round-trips deliver lists; normalise so replayed
        # results compare equal to freshly computed ones.
        if not isinstance(self.forced_times, tuple):
            object.__setattr__(self, "forced_times", tuple(self.forced_times))

    @property
    def forced_per_hour(self) -> float:
        return self.forced_migrations / self.duration_hours if self.duration_hours else 0.0

    @property
    def planned_reverse_per_hour(self) -> float:
        if not self.duration_hours:
            return 0.0
        return (self.planned_migrations + self.reverse_migrations) / self.duration_hours

    @property
    def availability_percent(self) -> float:
        return 100.0 - self.unavailability_percent

    @property
    def savings_percent(self) -> float:
        """Cost saved versus the all-on-demand baseline."""
        return 100.0 - self.normalized_cost_percent


@dataclass(frozen=True)
class AggregateResult:
    """Mean/std of a metric set over several seeds."""

    label: str
    n_runs: int
    normalized_cost_percent: float
    normalized_cost_std: float
    unavailability_percent: float
    unavailability_std: float
    forced_per_hour: float
    planned_reverse_per_hour: float
    downtime_s_mean: float
    total_cost_mean: float

    def row(self) -> tuple:
        return (
            self.label,
            self.normalized_cost_percent,
            self.unavailability_percent,
            self.forced_per_hour,
            self.planned_reverse_per_hour,
        )


def aggregate(results: Sequence[SimulationResult], label: str | None = None) -> AggregateResult:
    """Reduce per-seed results to their means (and stds)."""
    if not results:
        raise SchedulingError("cannot aggregate zero results")
    labels = {r.label for r in results}
    if label is None:
        if len(labels) != 1:
            raise SchedulingError(f"mixed labels in aggregate: {sorted(labels)}")
        label = next(iter(labels))
    cost = np.array([r.normalized_cost_percent for r in results])
    unav = np.array([r.unavailability_percent for r in results])
    forced = np.array([r.forced_per_hour for r in results])
    pr = np.array([r.planned_reverse_per_hour for r in results])
    down = np.array([r.downtime_s for r in results])
    total = np.array([r.total_cost for r in results])
    return AggregateResult(
        label=label,
        n_runs=len(results),
        normalized_cost_percent=float(cost.mean()),
        normalized_cost_std=float(cost.std()),
        unavailability_percent=float(unav.mean()),
        unavailability_std=float(unav.std()),
        forced_per_hour=float(forced.mean()),
        planned_reverse_per_hour=float(pr.mean()),
        downtime_s_mean=float(down.mean()),
        total_cost_mean=float(total.mean()),
    )
