"""Fleet-scale multi-tenant simulation: N services, one shared spot market.

The paper's SpotCheck design is only economically interesting at
derivative-cloud scale: a provider hosting *many* tenants on shared spot
capacity, absorbing correlated revocations with pooled warm spares. This
package layers that fleet view on the reproduction:

* :class:`~repro.fleet.spec.ServiceSpec` / :class:`~repro.fleet.spec.FleetSpec`
  describe N heterogeneous services (distinct strategies, bidding policies,
  availability targets, spare quotas, arrival/departure times) that all
  price against **one shared market**: every service's run resolves the
  same seeded trace catalog, so a price spike that revokes one tenant
  revokes every tenant bidding in that market at the same instant —
  correlated revocation storms emerge from the shared traces, exactly as
  in :class:`repro.pool.SpotPool`, but at ``run_batch`` scale;
* :class:`~repro.fleet.spares.SharedSparePool` replays concurrent
  multi-service claim/return against one warm-spare pool with
  per-service quotas and hit/miss accounting, and
  :func:`~repro.fleet.spares.concurrent_events` sizes it — the spares
  an unbounded pool would have needed at its peak;
* :func:`~repro.fleet.runner.run_fleet` routes the fleet through
  :func:`repro.runtime.run_batch`, so fleets inherit the process pool,
  crash-safe ledger resume, and ``--engine auto`` vector/event routing;
* :class:`~repro.fleet.report.FleetReport` distils the fleet-level story:
  aggregate cost vs the all-on-demand baseline, per-service P99 downtime,
  spare-pool hit rate, and a revocation-correlation summary.

See ``docs/FLEET.md`` for the model, CLI walkthrough, and metrics glossary.
"""

from repro.fleet.report import (
    CorrelationReport,
    FleetReport,
    ServiceReport,
    SparePoolReport,
)
from repro.fleet.runner import run_fleet
from repro.fleet.spares import (
    SharedSparePool,
    SpareEvent,
    SparePoolOutcome,
    concurrent_events,
)
from repro.fleet.spec import FleetSpec, ServiceSpec, synthesize_fleet

__all__ = [
    "CorrelationReport",
    "FleetReport",
    "FleetSpec",
    "ServiceReport",
    "ServiceSpec",
    "SharedSparePool",
    "SpareEvent",
    "SparePoolOutcome",
    "SparePoolReport",
    "concurrent_events",
    "run_fleet",
    "synthesize_fleet",
]
