"""The cloud-provider facade: leases, markets, storage, addresses.

:class:`CloudProvider` ties the substrates together behind the small API
the scheduler consumes:

* ``request_spot`` / ``request_on_demand`` return a :class:`Lease` whose
  ``ready_at`` includes the sampled allocation latency (Table 1);
* ``terminate`` closes a lease and materialises its billing records
  (hourly spot billing with free revoked partial hours);
* ``volumes`` and ``vpc`` expose the persistence and addressing services.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cloud.billing import (
    BillingRecord,
    LeaseBilling,
    on_demand_lease_billing,
    spot_lease_billing,
)
from repro.cloud.ebs import VolumeStore
from repro.cloud.spot_market import REVOCATION_GRACE_S, SpotMarket
from repro.cloud.startup import StartupSampler
from repro.cloud.vpc import VirtualPrivateCloud
from repro.errors import InstanceNotHeldError, MarketError
from repro.obs.events import LeaseAcquired, LeaseTerminated
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.traces.catalog import MarketKey, TraceCatalog

__all__ = ["LeaseKind", "Lease", "CloudProvider"]


class LeaseKind(enum.Enum):
    """Whether a lease is a revocable spot server or a non-revocable one."""

    SPOT = "spot"
    ON_DEMAND = "on_demand"


@dataclass
class Lease:
    """One server allocation, from request to termination.

    The service runs on the lease from ``ready_at`` until ``ended_at``;
    billing covers the same interval.
    """

    lease_id: str
    kind: LeaseKind
    market: MarketKey
    requested_at: float
    ready_at: float
    bid: Optional[float] = None  #: spot only
    ended_at: Optional[float] = None
    end_reason: str = ""
    #: Billed hours in array form, set at termination (None while active
    #: or when nothing was billed). ``records`` materialises it on demand.
    billing: Optional[LeaseBilling] = None

    @property
    def active(self) -> bool:
        return self.ended_at is None

    @property
    def records(self) -> List[BillingRecord]:
        """Per-hour billing records, materialised lazily from ``billing``."""
        return [] if self.billing is None else self.billing.records()

    @property
    def total_cost(self) -> float:
        return 0.0 if self.billing is None else self.billing.total

    def duration(self) -> float:
        if self.ended_at is None:
            raise MarketError(f"lease {self.lease_id} still active")
        return self.ended_at - self.ready_at


class CloudProvider:
    """Simulated IaaS provider over a :class:`TraceCatalog`.

    Parameters
    ----------
    catalog:
        Price traces and on-demand prices per market.
    rng:
        Generator for startup-latency sampling.
    grace_s:
        Revocation warning-to-termination window (default two minutes).
    startup_cv:
        Dispersion of startup latencies (0 makes them deterministic —
        useful in tests).
    sink:
        A :class:`repro.obs.TraceSink` receiving lease-lifecycle events
        (:class:`~repro.obs.LeaseAcquired` / :class:`~repro.obs.LeaseTerminated`).
        The default null sink makes this free.
    """

    def __init__(
        self,
        catalog: TraceCatalog,
        rng: np.random.Generator,
        grace_s: float = REVOCATION_GRACE_S,
        startup_cv: float = 0.25,
        sink: TraceSink = NULL_SINK,
    ) -> None:
        self.catalog = catalog
        self.sink = sink
        self.grace_s = float(grace_s)
        self.startup = StartupSampler(rng, cv=startup_cv)
        self.volumes = VolumeStore()
        self.vpc = VirtualPrivateCloud()
        self._markets: Dict[MarketKey, SpotMarket] = {}
        self._ids = itertools.count(1)
        self._active: Dict[str, Lease] = {}

    # ---------------------------------------------------------------- markets
    def market(self, key: MarketKey) -> SpotMarket:
        """The spot market for one (zone, size) pair."""
        m = self._markets.get(key)
        if m is None:
            m = SpotMarket(
                name=str(key),
                trace=self.catalog.trace(key),
                on_demand_price=self.catalog.on_demand_price(key),
                grace_s=self.grace_s,
            )
            self._markets[key] = m
        return m

    def on_demand_price(self, key: MarketKey) -> float:
        """Fixed hourly price of the non-revocable flavour of a market."""
        return self.catalog.on_demand_price(key)

    def markets(self) -> List[MarketKey]:
        return self.catalog.markets()

    # ----------------------------------------------------------------- leases
    def request_spot(self, key: MarketKey, bid: float, t: float) -> Lease:
        """Request a spot server; raises if the bid is rejected right now.

        The server becomes usable at ``ready_at`` after the sampled spot
        allocation latency (3.5-4.5 min, Table 1).
        """
        market = self.market(key)
        market.require_grantable(bid, t)
        delay = self.startup.sample("spot", key.region)
        lease = Lease(
            lease_id=f"sir-{next(self._ids):06d}",
            kind=LeaseKind.SPOT,
            market=key,
            requested_at=t,
            ready_at=t + delay,
            bid=float(bid),
        )
        self._active[lease.lease_id] = lease
        if self.sink.enabled:
            self.sink.emit(
                LeaseAcquired(
                    t=t,
                    market=str(key),
                    kind="spot",
                    lease_id=lease.lease_id,
                    ready_at=lease.ready_at,
                    bid=lease.bid,
                )
            )
        return lease

    def request_on_demand(self, key: MarketKey, t: float) -> Lease:
        """Request a non-revocable server (~1.5 min allocation, Table 1)."""
        delay = self.startup.sample("on_demand", key.region)
        lease = Lease(
            lease_id=f"i-{next(self._ids):06d}",
            kind=LeaseKind.ON_DEMAND,
            market=key,
            requested_at=t,
            ready_at=t + delay,
        )
        self._active[lease.lease_id] = lease
        if self.sink.enabled:
            self.sink.emit(
                LeaseAcquired(
                    t=t,
                    market=str(key),
                    kind="on_demand",
                    lease_id=lease.lease_id,
                    ready_at=lease.ready_at,
                )
            )
        return lease

    def revocation_warning_time(self, lease: Lease, from_t: float) -> Optional[float]:
        """Next revocation warning for a spot lease, or ``None``.

        On-demand leases are never revoked.
        """
        self._require_active(lease)
        if lease.kind is not LeaseKind.SPOT:
            return None
        assert lease.bid is not None
        return self.market(lease.market).revocation_warning_time(lease.bid, from_t)

    def terminate(self, lease: Lease, t: float, *, revoked: bool = False, reason: str = "") -> Lease:
        """End a lease at time ``t`` and materialise its billing records.

        ``revoked`` must be true for provider-initiated spot terminations so
        the final partial hour is not billed.
        """
        self._require_active(lease)
        if t < lease.ready_at:
            # Cancelled before it ever became ready: nothing billed.
            lease.ended_at = lease.ready_at
            lease.end_reason = reason or "cancelled"
            lease.billing = None
            del self._active[lease.lease_id]
            self._emit_terminated(lease, t, revoked=False)
            return lease
        if revoked and lease.kind is not LeaseKind.SPOT:
            raise MarketError("on-demand leases cannot be revoked")
        lease.ended_at = float(t)
        lease.end_reason = reason or ("revoked" if revoked else "terminated")
        if lease.kind is LeaseKind.SPOT:
            lease.billing = spot_lease_billing(
                self.catalog.trace(lease.market), lease.ready_at, t, revoked
            )
        else:
            lease.billing = on_demand_lease_billing(
                self.on_demand_price(lease.market), lease.ready_at, t
            )
        del self._active[lease.lease_id]
        self._emit_terminated(lease, t, revoked=revoked)
        return lease

    def _emit_terminated(self, lease: Lease, t: float, *, revoked: bool) -> None:
        if self.sink.enabled:
            self.sink.emit(
                LeaseTerminated(
                    t=t,
                    market=str(lease.market),
                    kind=lease.kind.value,
                    lease_id=lease.lease_id,
                    reason=lease.end_reason,
                    revoked=revoked,
                    billed=lease.total_cost,
                )
            )

    def active_leases(self) -> List[Lease]:
        """Currently held (unterminated) leases."""
        return list(self._active.values())

    def _require_active(self, lease: Lease) -> None:
        if lease.lease_id not in self._active:
            raise InstanceNotHeldError(f"lease {lease.lease_id} is not active")
