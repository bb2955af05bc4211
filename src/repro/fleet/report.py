"""Fleet-level result records: the report ``repro-fleet`` prints and tests
pin.

A :class:`FleetReport` is a pure value assembled by
:func:`repro.fleet.runner.run_fleet` from deterministic inputs, so its
:meth:`FleetReport.to_json` rendering is byte-identical at any ``--jobs``
value and across the event/vector engines — the fleet-level extension of
the runtime layer's determinism contract.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "ServiceReport",
    "SparePoolReport",
    "CorrelationReport",
    "FleetReport",
]


@dataclass(frozen=True)
class ServiceReport:
    """One tenant's outcome, prorated to its active window."""

    name: str
    label: str
    strategy_kind: str
    availability_target_percent: float
    arrival_s: float
    departure_s: float
    #: Share of the fleet horizon the service was active.
    active_fraction: float
    cost: float
    baseline_cost: float
    normalized_cost_percent: float
    unavailability_percent: float
    downtime_s: float
    forced_migrations: int
    target_met: bool
    spare_quota: int
    spare_claims: int
    spare_hits: int
    spare_misses: int


@dataclass(frozen=True)
class SparePoolReport:
    """Shared warm-spare pool accounting over the whole fleet run."""

    capacity: int
    handover_window_s: float
    claims: int
    hits: int
    misses: int
    quota_misses: int
    exhausted_misses: int
    hit_rate: float
    peak_in_use: int
    #: Spares the fleet's worst burst would have needed with *no* capacity
    #: limit and no quotas — the :func:`repro.fleet.spares.concurrent_events`
    #: sizing answer (equal to ``CorrelationReport.peak_concurrent_forced``),
    #: for comparison against ``capacity``.
    unconstrained_requirement: int


@dataclass(frozen=True)
class CorrelationReport:
    """How correlated the fleet's forced revocations were.

    Services bidding in the same market are revoked by the same price
    spike; this summary quantifies the resulting storms, which are what
    the shared spare pool has to absorb.
    """

    total_forced: int
    #: Most forced migrations in flight at once (within one handover
    #: window of each other).
    peak_concurrent_forced: int
    #: Fraction of forced migrations that overlapped at least one other
    #: *service's* forced migration.
    co_revocation_fraction: float
    #: Distinct services that experienced at least one forced migration.
    services_with_forced: int


@dataclass(frozen=True)
class FleetReport:
    """The fleet-level story of one :func:`~repro.fleet.runner.run_fleet`."""

    seed: int
    horizon_hours: float
    n_markets: int
    n_services: int
    n_initial: int
    n_arrived: int
    n_departed: int
    #: Active-window weighted fleet spend and its all-on-demand baseline.
    total_cost: float
    baseline_cost: float
    normalized_cost_percent: float
    savings_percent: float
    #: Distribution of per-service downtime (prorated seconds).
    downtime_p50_s: float
    downtime_p99_s: float
    downtime_max_s: float
    mean_unavailability_percent: float
    services_meeting_target: int
    spare_pool: SparePoolReport
    correlation: CorrelationReport
    services: Tuple[ServiceReport, ...]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready nested dict (dataclasses expanded recursively)."""
        return dataclasses.asdict(self)

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON rendering — sorted keys, deterministic bytes."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """Multi-line human rendering of the fleet-level metrics."""
        sp = self.spare_pool
        co = self.correlation
        lines = [
            f"fleet: {self.n_services} services ({self.n_initial} initial, "
            f"{self.n_arrived} arrived, {self.n_departed} departed) over "
            f"{self.n_markets} markets, {self.horizon_hours:.0f} h",
            f"cost: ${self.total_cost:.2f} = {self.normalized_cost_percent:.1f}% "
            f"of the ${self.baseline_cost:.2f} all-on-demand baseline "
            f"({self.savings_percent:.1f}% saved)",
            f"downtime per service: p50 {self.downtime_p50_s:.1f} s, "
            f"p99 {self.downtime_p99_s:.1f} s, max {self.downtime_max_s:.1f} s; "
            f"mean unavailability {self.mean_unavailability_percent:.4f}%",
            f"availability targets met: {self.services_meeting_target}"
            f"/{self.n_services}",
            f"spare pool: {sp.capacity} spares, {sp.claims} claims, "
            f"{sp.hits} hits ({100.0 * sp.hit_rate:.1f}%), "
            f"{sp.quota_misses} quota / {sp.exhausted_misses} exhausted misses, "
            f"peak {sp.peak_in_use} in use "
            f"(unconstrained sizing: {sp.unconstrained_requirement})",
            f"correlation: {co.total_forced} forced migrations across "
            f"{co.services_with_forced} services, peak {co.peak_concurrent_forced} "
            f"concurrent, {100.0 * co.co_revocation_fraction:.1f}% co-revoked",
        ]
        return "\n".join(lines)
