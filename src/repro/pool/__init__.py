"""Multi-tenant server pools over spot markets (SpotCheck-style).

The paper's scheduler hosts one service. Its companion system SpotCheck
(ref [16]) derives a *reliable cloud* from spot servers by hosting many
tenant VMs over pools of spot capacity, with shared on-demand spares
absorbing revocations. This package layers that on the reproduction:
:class:`~repro.pool.pool.SpotPool` runs many independent scheduler
instances over one shared engine/provider, so co-revocations (all
tenants in a market are revoked by the same price spike) emerge from
the shared traces. It sizes the shared on-demand spare pool from the
observed concurrency of forced migrations
(:func:`repro.fleet.spares.concurrent_events`) — the
statistical-multiplexing argument for why a derivative cloud's overhead
capacity can be a small fraction of its fleet *if* placements are
diversified across markets.
"""

from repro.pool.pool import PoolConfig, PoolResult, ServiceOutcome, SpotPool

__all__ = [
    "PoolConfig",
    "PoolResult",
    "ServiceOutcome",
    "SpotPool",
]
