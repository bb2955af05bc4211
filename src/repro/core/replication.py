"""A replicated (hot-standby) spot scheduler — extension beyond the paper.

The paper's scheduler owns one server at a time and survives revocations by
checkpoint-migrating within the grace window. This extension instead keeps
a **Remus hot standby** on a *second, independent spot market*: when the
primary is revoked the service fails over in a couple of seconds, and a new
standby is procured in whichever market is cheapest. The standing cost is a
second spot price (still far below one on-demand price), buying downtime
that neither grows with memory size nor depends on any restore path.

Event loop (mirrors :class:`repro.core.scheduler.CloudScheduler`):

* **primary revocation** — ride the grace window, then fail over to the
  standby (if its initial sync completed; otherwise fall back to a
  checkpoint restore on an emergency on-demand server), then re-procure a
  standby;
* **standby revocation** — no downtime; replace the standby;
* **billing-boundary check** — if the primary's market has risen above the
  on-demand price, do a *planned* failover (sub-second) and re-procure; if
  the standby's market has, replace the standby.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from repro.cloud.instance_types import instance_type
from repro.cloud.provider import CloudProvider, Lease, LeaseKind
from repro.cloud.regions import RegionLink, link_between
from repro.core.registry import ArgSpec, register_strategy
from repro.core.scheduler import CloudScheduler, _boundary_check_after
from repro.core.strategies import HostingStrategy
from repro.errors import ConfigurationError, SchedulingError
from repro.simulator.process import Timeout
from repro.traces.catalog import MarketKey
from repro.units import SECONDS_PER_HOUR
from repro.vm.memory import MemoryProfile
from repro.vm.replication import RemusReplication
from repro.vm.restore import LazyRestore

__all__ = ["RemusPairStrategy", "ReplicatedScheduler"]


@register_strategy(
    "remus-pair",
    display_name="Remus pair",
    citation="Cully et al., Remus (NSDI 2008), ref [9] of the HPDC 2015 source "
    "paper; extension: the hot standby rides a second spot market",
    arg_schema=(
        ArgSpec("regions", "regions"),
        # No CLI flag: ``--units`` defaults to the fleet families' 8.
        ArgSpec("service_units", "int", required=False, default=1,
                help="service size in small-equivalents"),
    ),
    example_args=(("us-east-1a", "us-west-1a"),),
    summary="primary plus Remus hot standby on two spot markets",
)
class RemusPairStrategy(HostingStrategy):
    """A Remus-protected primary/standby pair across spot markets.

    The service is ``service_units`` small-sized nested VMs; candidates
    are every market in ``regions`` one server of which hosts it all.
    :func:`~repro.core.simulation.build_stack` runs this family on a
    :class:`ReplicatedScheduler`. Not vectorizable.
    """

    def __init__(self, regions: Sequence[str], service_units: int = 1) -> None:
        if not regions:
            raise ConfigurationError("need at least one region")
        if service_units <= 0:
            raise ConfigurationError("service_units must be positive")
        self.regions = tuple(regions)
        self.service_units = service_units

    def candidate_markets(self, provider: CloudProvider) -> List[MarketKey]:
        out: List[MarketKey] = []
        for region in self.regions:
            out.extend(provider.catalog.markets_in_region(region))
        return sorted(
            k for k in out if instance_type(k.size).capacity_units >= self.service_units
        )

    def __repr__(self) -> str:
        return f"RemusPair({','.join(self.regions)}, units={self.service_units})"


@dataclass
class _Node:
    """One server of the replicated pair."""

    lease: Lease
    key: MarketKey
    protected_from: float  #: when the standby's initial sync completes

    @property
    def kind(self) -> LeaseKind:
        return self.lease.kind

    @property
    def leases(self) -> List[Lease]:
        """The placement view :meth:`CloudScheduler._release` bills."""
        return [self.lease]


class ReplicatedScheduler(CloudScheduler):
    """Hosts one service as a Remus-protected primary/standby spot pair.

    Built by :func:`~repro.core.simulation.build_stack` for a
    :class:`RemusPairStrategy`, with :class:`CloudScheduler`'s constructor
    (the migration model and service disk are unused). The
    :attr:`placement` is the primary, so the placement log records its
    tenures; :attr:`standby` is the hot standby. Ledger, availability,
    migrations and metrics are :class:`CloudScheduler`'s, so results are
    summarised and audited exactly as for the paper's scheduler.
    """

    BOUNDARY_LEAD_S = 60.0
    #: Re-optimization hysteresis: a move must beat the current primary
    #: price by this factor, and happen at most once per dwell period —
    #: each planned failover costs a sub-second blackout, so chasing noise
    #: would spend the availability budget on pennies.
    REOPT_IMPROVEMENT = 0.70
    REOPT_DWELL_S = 12 * SECONDS_PER_HOUR
    #: The replication channel every pair runs.
    remus = RemusReplication()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.candidates = self.strategy.candidate_markets(self.provider)
        if not self.candidates:
            raise SchedulingError("no candidate market can host the service size")
        #: The emergency on-demand market (on-demand prices are static).
        self._od_key = min(self.candidates, key=self.provider.on_demand_price)
        self.memory = MemoryProfile(
            size_gib=self.strategy.service_units * instance_type("small").nested_memory_gib
        )
        self.standby: Optional[_Node] = None
        self.unprotected_s = 0.0  #: time spent without a synced standby
        self._last_reopt = -float("inf")

    # -------------------------------------------------------------- helpers
    def _sync_link(self, primary: _Node, key: MarketKey) -> Optional[RegionLink]:
        """The primary-to-``key`` link a standby there replicates over, or
        ``None`` when it cannot sustain the service's dirty rate."""
        link = link_between(primary.key.region, key.region)
        return link if self.remus.supports(self.memory, link) else None

    def _cheapest_grantable(self, t: float, primary: Optional[_Node]) -> Optional[MarketKey]:
        """The cheapest grantable candidate: for a standby of ``primary``,
        one outside its market that it can replicate to."""
        best_key, best_price = None, None
        for key in self.candidates:
            if primary is not None and (
                key == primary.key or self._sync_link(primary, key) is None
            ):
                continue
            market = self.provider.market(key)
            if not market.grantable(self._bid(key), t):
                continue
            price = market.price_at(t)
            if best_price is None or price < best_price:
                best_key, best_price = key, price
        return best_key

    def _warning(self, node: Optional[_Node], from_t: float) -> Optional[float]:
        if node is None or node.lease.kind is not LeaseKind.SPOT:
            return None
        assert node.lease.bid is not None
        return self.provider.market(node.key).revocation_warning_time(
            node.lease.bid, from_t
        )

    def _procure_standby(self, t: float) -> None:
        """Acquire a standby in the cheapest other market the primary can
        replicate to, else on-demand, else none; it is protected once its
        initial sync over the primary-to-standby link ends."""
        primary = self.placement
        assert primary is not None
        key = self._cheapest_grantable(t, primary)
        if key is not None:
            lease = self.provider.request_spot(key, self._bid(key), t)
        elif self._sync_link(primary, self._od_key) is not None:
            key = self._od_key
            lease = self.provider.request_on_demand(key, t)
        else:
            return
        sync = self.remus.initial_sync_s(self.memory, self._sync_link(primary, key))
        self.standby = _Node(lease=lease, key=key, protected_from=lease.ready_at + sync)

    # ============================================================= main loop
    def _main(self) -> Generator:
        t = self.engine.now
        first = self._cheapest_grantable(t, None)
        if first is None:
            # No spot market grantable at t=0: start on-demand as primary.
            first = self._od_key
            lease = self.provider.request_on_demand(first, t)
        else:
            lease = self.provider.request_spot(first, self._bid(first), t)
        self.placement = _Node(lease=lease, key=first, protected_from=lease.ready_at)
        ready = min(self.placement.lease.ready_at, self.horizon)
        yield Timeout(max(0.0, ready - t))
        self.availability.open_window(ready)
        self._procure_standby(self.engine.now)

        while self.engine.now < self.horizon:
            yield from self._step()
        self._finalize()

    def _step(self) -> Generator:
        now = self.engine.now
        assert self.placement is not None
        wp = self._warning(self.placement, now)
        ws = self._warning(self.standby, now)
        check = _boundary_check_after(
            self.placement.lease.ready_at, now, self.BOUNDARY_LEAD_S
        )
        t_next = min(
            wp if wp is not None else float("inf"),
            ws if ws is not None else float("inf"),
            check,
            self.horizon,
        )
        # account unprotected exposure up to the next event
        if self.standby is None or self.standby.protected_from > now:
            shield = self.standby.protected_from if self.standby else t_next
            self.unprotected_s += max(0.0, min(t_next, shield) - now)
        yield Timeout(max(0.0, t_next - now))
        now = self.engine.now
        if now >= self.horizon:
            return
        if wp is not None and now >= wp - 1e-9:
            yield from self._primary_revoked(wp)
        elif ws is not None and now >= ws - 1e-9:
            yield from self._standby_revoked(ws)
        else:
            self._boundary_check(now)

    # ---------------------------------------------------------------- events
    def _primary_revoked(self, warning: float) -> Generator:
        assert self.placement is not None
        grace = self.provider.grace_s
        dead_at = min(warning + grace, self.horizon)
        yield Timeout(max(0.0, dead_at - self.engine.now))
        old = self.placement
        self._release(old, dead_at, revoked=True, reason="revoked")

        if self.standby is not None and self.standby.protected_from <= dead_at:
            fo = self.remus.failover()
            resume = dead_at + fo.downtime_s
            self._blackout(dead_at, resume, "failover", 0.0)
            self.placement = self.standby
            self.standby = None
            self._record_migration("failover", warning, resume, fo.downtime_s,
                                   str(old.key), str(self.placement.key))
        else:
            # Unprotected: emergency on-demand restore from the periodic
            # EBS checkpoint (lazy restore, size-independent).
            if self.standby is not None:
                self._release(self.standby, dead_at, revoked=False, reason="unsynced")
                self.standby = None
            od_key = self._od_key
            lease = self.provider.request_on_demand(od_key, warning)
            restore = LazyRestore().restore(self.memory)
            resume = max(dead_at, lease.ready_at) + restore.downtime_s
            self._blackout(dead_at, resume, "unprotected-restore", 0.0)
            self.placement = _Node(lease=lease, key=od_key, protected_from=lease.ready_at)
            self._record_migration("unprotected-restore", warning, resume,
                                   resume - dead_at, str(old.key), str(od_key))
        if self.engine.now < self.horizon:
            self._procure_standby(max(self.engine.now, dead_at))
        yield Timeout(max(0.0, min(self.horizon, self.engine.now) - self.engine.now))

    def _standby_revoked(self, warning: float) -> Generator:
        grace = self.provider.grace_s
        dead_at = min(warning + grace, self.horizon)
        yield Timeout(max(0.0, dead_at - self.engine.now))
        if self.standby is not None:
            old = self.standby
            self._release(old, dead_at, revoked=True, reason="revoked")
            self.standby = None
            self._record_migration(
                "standby-replace", warning, dead_at, 0.0, str(old.key), "-"
            )
        if self.engine.now < self.horizon:
            self._procure_standby(dead_at)

    def _planned_failover(self, now: float, reason: str) -> None:
        """Promote the (synced) standby, retire the primary, re-procure."""
        assert self.placement is not None and self.standby is not None
        fo = self.remus.planned_failover()
        old = self.placement
        self._release(old, now, revoked=False, reason=reason)
        self._blackout(now, now + fo.downtime_s, "planned-failover", 0.0)
        self.placement = self.standby
        self.standby = None
        self._record_migration(reason, now, now + fo.downtime_s,
                               fo.downtime_s, str(old.key), str(self.placement.key))
        self._procure_standby(now)

    def _swap_standby(self, now: float) -> None:
        assert self.standby is not None
        old = self.standby
        self._release(old, now, revoked=False, reason="standby-swap")
        self.standby = None
        self._record_migration("standby-replace", now, now, 0.0, str(old.key), "-")
        self._procure_standby(now)

    def _boundary_check(self, now: float) -> None:
        assert self.placement is not None
        p_price = self.provider.market(self.placement.key).price_at(now)
        p_od = self.provider.on_demand_price(self.placement.key)
        standby_synced = (
            self.standby is not None
            and self.standby.protected_from <= now
            and self.standby.lease.kind is LeaseKind.SPOT
        )
        s_price = (
            self.provider.market(self.standby.key).price_at(now)
            if self.standby is not None else float("inf")
        )

        # Mandatory exit: the primary's market has risen above on-demand.
        if (
            self.placement.lease.kind is LeaseKind.SPOT
            and p_price > p_od
            and standby_synced
        ):
            self._planned_failover(now, "planned-failover")
            return
        # Cost re-optimization (phase 2): the staged standby is much
        # cheaper than the primary — promote it.
        if (
            standby_synced
            and s_price < self.REOPT_IMPROVEMENT * p_price
            and now - self._last_reopt >= self.REOPT_DWELL_S
        ):
            self._last_reopt = now
            self._planned_failover(now, "reopt-failover")
            return

        # Standby maintenance / re-optimization phase 1.
        if self.standby is None:
            self._procure_standby(now)
            return
        s_od = self.provider.on_demand_price(self.standby.key)
        too_expensive = (
            self.standby.lease.kind is LeaseKind.ON_DEMAND or s_price > s_od
        )
        cheapest = self._cheapest_grantable(now, self.placement)
        if too_expensive and cheapest is not None:
            self._swap_standby(now)
            return
        # Stage the standby in a much cheaper market so the next boundary
        # can fail over onto it (two-phase move toward the cheap market).
        if (
            cheapest is not None
            and cheapest != self.standby.key
            and self.provider.market(cheapest).price_at(now)
            < self.REOPT_IMPROVEMENT * min(p_price, s_price)
        ):
            self._swap_standby(now)

    def _finalize(self) -> None:
        now = min(self.engine.now, self.horizon)
        for node in (self.placement, self.standby):
            if node is not None and node.lease.active:
                self._release(node, now, revoked=False, reason="horizon")
        self.placement = None
        self.standby = None
        if self.availability.window_start is None:
            self.availability.open_window(now)
        self.availability.close_window(self.horizon)
