"""The cloud scheduler: a DES process hosting one always-on service.

The scheduler owns a *placement* — a fleet of spot or on-demand leases in
one market — and walks the paper's three-step bidding loop (Section 3.1):

1. **Forced migration** — the spot price crossed the bid: the provider
   issues a revocation warning; the scheduler flushes the bounded
   checkpoint inside the grace window and restores on an on-demand server
   requested at the warning instant.
2. **Planned migration** — near the end of a billing hour the spot price
   sits above the on-demand price (but below the bid): migrate voluntarily
   to the cheapest alternative (another spot market if the strategy allows
   it, else on-demand), with as much time as the mechanism needs.
3. **Reverse migration** — near the end of a billing hour the spot price is
   back below the on-demand price while running on-demand: re-procure a
   spot server and migrate back.

Because spot hours are billed at the start-of-hour price, decisions are
evaluated a *lead time* before each billing boundary — long enough to
acquire the target server and complete the migration just before the
boundary. A price excursion that begins and ends between boundaries costs a
proactive bidder nothing and triggers no migration; the same excursion
revokes a reactive bidder immediately.

A planned migration in flight can still be overtaken by a sharp spike past
the bid ("a large sharp spike of the spot price above the bid price will
cause the spot server to be revoked ... before the proactive algorithm can
begin (or finish) its voluntary migration") — the scheduler detects the
overlap and converts the move into a forced migration. Likewise a reverse
migration is aborted when the freshly acquired spot server would be revoked
before the service even lands on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Iterable, List, Optional

import numpy as np

from repro.cloud.provider import CloudProvider, Lease, LeaseKind
from repro.cloud.regions import link_between, region_of
from repro.cloud.startup import STARTUP_MEANS_S
from repro.core.accounting import AvailabilityTracker, CostLedger
from repro.core.bidding import BiddingPolicy
from repro.core.strategies import HostingStrategy, PlacementTarget
from repro.errors import SchedulingError
from repro.obs.events import (
    BidPlaced,
    BillingTick,
    CheckpointRestore,
    CheckpointWrite,
    ForcedMigration,
    MigrationAborted,
    PriceCrossing,
    Revocation,
    RevocationWarning,
    ServiceBlackout,
    VoluntaryMigration,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.simulator.engine import Engine
from repro.simulator.process import Process, Timeout
from repro.traces.catalog import MarketKey
from repro.units import SECONDS_PER_HOUR
from repro.vm.disk_copy import disk_copy_seconds_between
from repro.vm.mechanisms import MigrationModel

__all__ = ["MigrationRecord", "BoundaryDecision", "CloudScheduler"]


@dataclass(frozen=True)
class BoundaryDecision:
    """Outcome of one billing-boundary evaluation.

    Produced by the side-effect-free decision functions
    (:meth:`CloudScheduler.decide_spot_boundary` /
    :meth:`CloudScheduler.decide_on_demand_boundary`) and *applied* by the
    phase generators. Keeping policy evaluation separate from execution is
    what lets the vectorized batch engine reuse the exact same decision
    code: it predicts where the next non-``stay`` decision lands with
    array scans, then calls these functions at that instant to act.
    """

    action: str  #: 'stay' | 'migrate'
    target_key: Optional[MarketKey] = None
    n_servers: int = 0
    target_kind: Optional[LeaseKind] = None
    kind: str = ""  #: migration kind label ('planned' | 'reverse' | 'spot-switch')

    @property
    def migrates(self) -> bool:
        return self.action == "migrate"


_STAY = BoundaryDecision(action="stay")


@dataclass(frozen=True)
class MigrationRecord:
    """One migration (or aborted attempt) performed by the scheduler."""

    kind: str  #: 'forced' | 'planned' | 'reverse' | 'spot-switch' | 'aborted-reverse'
    started_at: float
    completed_at: float
    downtime_s: float
    source: str
    target: str


@dataclass(frozen=True)
class PlacementRecord:
    """One tenure on a placement: these leases held over [start, end).

    Together the records form the run's placement timeline."""

    start: float
    end: float
    kind: str  #: 'spot' | 'on_demand'
    market: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Placement:
    """The fleet currently hosting the service."""

    kind: LeaseKind
    key: MarketKey
    leases: List[Lease] = field(default_factory=list)

    @property
    def ready_at(self) -> float:
        return max(l.ready_at for l in self.leases)


class _Tenure:
    """One placement's boundary-loop constants (see :meth:`CloudScheduler._tenure`).

    ``market``, ``bid``, ``lead`` and the boundary ``anchor`` are fixed for
    the life of a placement. On spot, ``warning`` is the first instant at
    or after the last recompute at which the price exceeds the bid.
    """

    __slots__ = ("placement", "market", "bid", "lead", "anchor", "warning")

    def __init__(self, scheduler: "CloudScheduler", placement: _Placement, now: float) -> None:
        self.placement = placement
        self.market = scheduler._market(placement.key)
        self.lead = scheduler._planned_lead(placement.key)
        self.anchor = placement.ready_at
        self.bid: Optional[float] = None
        self.warning: Optional[float] = None
        if placement.kind is LeaseKind.SPOT:
            bid = placement.leases[0].bid
            assert bid is not None
            self.bid = bid
            self.warning = self.market.revocation_warning_time(bid, now)


def _boundary_check_after(anchor: float, now: float, lead: float) -> float:
    """Next (billing boundary - lead) instant strictly after ``now``, with
    boundaries every hour from ``anchor``."""
    k = max(1, math.ceil((now + lead - anchor) / SECONDS_PER_HOUR - 1e-9))
    check = anchor + k * SECONDS_PER_HOUR - lead
    while check <= now + 1e-9:
        k += 1
        check = anchor + k * SECONDS_PER_HOUR - lead
    return check


@dataclass
class ServiceContext:
    """Persistent identity of the hosted service: volume plus address.

    The networked volume (disk state + checkpoint images) survives
    revocations; the stable address is re-bound to whichever server
    currently runs the nested VM."""

    volume_id: str
    address: str


class CloudScheduler:
    """Hosts one always-on service over a simulated cloud.

    Construct over an :class:`Engine` and call :meth:`run`; read results
    from :attr:`ledger`, :attr:`availability` and :attr:`migrations`.
    The service's disk state lives on an EBS-style networked volume and its
    address on a VPC elastic IP; both follow the nested VM through every
    migration (cloned/re-homed on cross-region moves).

    Every decision is additionally narrated to ``sink`` as typed
    :mod:`repro.obs` trace events (free with the default null sink) and
    tallied into ``metrics`` — migrations by cause, downtime per blackout,
    spend per market, bid-to-revocation lead times. Neither affects the
    simulated behaviour.
    """

    #: Safety margin added to migration lead times (seconds).
    LEAD_MARGIN_S = 60.0

    def __init__(
        self,
        engine: Engine,
        provider: CloudProvider,
        bidding: BiddingPolicy,
        strategy: HostingStrategy,
        migration_model: MigrationModel,
        rng: np.random.Generator,
        horizon: float,
        service_disk_gib: float = 2.0,
        sink: TraceSink = NULL_SINK,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.provider = provider
        self.bidding = bidding
        self.strategy = strategy
        self.model = migration_model
        self.rng = rng
        self.horizon = float(horizon)
        self.service_disk_gib = float(service_disk_gib)
        self.sink = sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        self.ledger = CostLedger()
        self.availability = AvailabilityTracker()
        self.migrations: List[MigrationRecord] = []
        self.placement_log: List[PlacementRecord] = []
        self._placement: Optional[_Placement] = None
        self._open_tenure: Optional[tuple] = None  #: (start, kind, market)
        self._process: Optional[Process] = None
        self._last_spot_switch = -float("inf")
        self._lead_cache: dict[MarketKey, float] = {}
        #: Per market key: (str(key), its spend counter). Releases are the
        #: hottest metrics site; formatting the key and re-resolving the
        #: counter on each one is measurable across a month of churn.
        self._spend_cache: dict[MarketKey, tuple] = {}
        #: str(key) memo — placement records and migration records format
        #: the same handful of keys hundreds of times per run.
        self._keystr_cache: dict[MarketKey, str] = {}
        self._disk_copy_cache: dict[tuple, float] = {}
        self._tenure_memo: Optional[_Tenure] = None
        self.service: Optional[ServiceContext] = None

    # ------------------------------------------------------------- placement
    @property
    def placement(self) -> Optional[_Placement]:
        """The fleet currently holding the service (None while dark)."""
        return self._placement

    @placement.setter
    def placement(self, value: Optional[_Placement]) -> None:
        now = min(self.engine.now, self.horizon)
        if self._open_tenure is not None:
            start, kind, market = self._open_tenure
            if now > start:
                self.placement_log.append(
                    PlacementRecord(start=start, end=now, kind=kind, market=market)
                )
            self._open_tenure = None
        if value is not None:
            self._open_tenure = (now, value.kind.value, self._key_str(value.key))
        self._placement = value

    def spot_time_fraction(self) -> float:
        """Fraction of recorded tenure spent on spot leases."""
        total = sum(r.duration for r in self.placement_log)
        if total <= 0:
            return 0.0
        spot = sum(r.duration for r in self.placement_log if r.kind == "spot")
        return spot / total

    # ------------------------------------------------------------------ run
    def start(self) -> None:
        """Register the scheduler process on the engine."""
        if self._process is not None:
            raise SchedulingError("scheduler already started")
        self._process = Process(self.engine, self._main(), label="cloud-scheduler")

    def run(self) -> None:
        """Start (if needed) and run the simulation to the horizon."""
        if self._process is None:
            self.start()
        self.engine.run(until=self.horizon + 1.0)
        if self._process is not None and self._process.alive:
            raise SchedulingError("scheduler process did not finish by the horizon")

    # ------------------------------------------------------------ reporting
    def migration_count(self, *kinds: str) -> int:
        """Number of migrations of the given kinds."""
        return sum(1 for m in self.migrations if m.kind in kinds)

    def migrations_per_hour(self, *kinds: str) -> float:
        """Migration rate over the availability window."""
        hours = self.availability.window_duration / SECONDS_PER_HOUR
        if hours <= 0:
            return 0.0
        return self.migration_count(*kinds) / hours

    # ---------------------------------------------------------------- leases
    def _acquire(self, key: MarketKey, n_servers: int, kind: LeaseKind, t: float) -> _Placement:
        leases: List[Lease] = []
        if kind is LeaseKind.SPOT:
            market = self.provider.market(key)
            bid = self.bidding.bid_price(market, t)
            for _ in range(n_servers):
                leases.append(self.provider.request_spot(key, bid, t))
            if self.sink.enabled:
                explain = getattr(self.bidding, "explain_bid", None)
                self.sink.emit(
                    BidPlaced(
                        t=t,
                        market=str(key),
                        bid=bid,
                        price=market.price_at(t),
                        policy=self.bidding.name,
                        n_servers=n_servers,
                        rationale=explain(market, t) if explain is not None else "",
                    )
                )
        else:
            for _ in range(n_servers):
                leases.append(self.provider.request_on_demand(key, t))
        return _Placement(kind=kind, key=key, leases=leases)

    def _release(self, placement: _Placement, t: float, *, revoked: bool, reason: str) -> None:
        entry = self._spend_cache.get(placement.key)
        if entry is None:
            market_str = str(placement.key)
            entry = (market_str, self.metrics.counter(f"spend_usd.{market_str}"))
            self._spend_cache[placement.key] = entry
        market_str, spend_counter = entry
        for lease in placement.leases:
            done = self.provider.terminate(lease, t, revoked=revoked, reason=reason)
            if done.billing is not None and len(done.billing):
                self.ledger.add_billing(done.billing, market=market_str)
                spend_counter.inc(done.total_cost)

    # ------------------------------------------------------- service identity
    def _provision_service(self, placement: _Placement, t: float) -> None:
        """Create the service's volume and address on first placement."""
        # Room for the root filesystem plus a full checkpoint image of the
        # *largest* server the strategy might ever migrate onto.
        biggest = max(
            self.strategy.migration_memory(key).size_gib
            for key in self.strategy.candidate_markets(self.provider)
        )
        size = self.service_disk_gib + biggest + 1.0
        vol = self.provider.volumes.create(placement.key.region, size)
        ip = self.provider.vpc.allocate(placement.key.region)
        self.provider.volumes.attach(vol.volume_id, placement.leases[0].lease_id,
                                     placement.key.region)
        self.provider.vpc.bind(ip.address, placement.leases[0].lease_id,
                               placement.key.region)
        self.provider.volumes.write(vol.volume_id, "root", self.service_disk_gib, at=t)
        self.service = ServiceContext(volume_id=vol.volume_id, address=ip.address)

    def _write_checkpoint(self, t: float) -> None:
        """Record the (incremental) checkpoint image on the service volume."""
        if self.service is None or self.placement is None:
            return
        mem = self.strategy.migration_memory(self.placement.key)
        self.provider.volumes.write(self.service.volume_id, "checkpoint",
                                    mem.size_gib, at=t)
        if self.sink.enabled:
            self.sink.emit(
                CheckpointWrite(t=t, market=str(self.placement.key), size_gib=mem.size_gib)
            )

    def _move_service(self, src_key: MarketKey, dst: _Placement, t: float) -> float:
        """Re-home volume and address onto the new placement.

        Returns the network-reconfiguration delay (0 in-region; the WAN
        re-bind delay across geo regions), which extends the blackout.
        """
        if self.service is None:
            return 0.0
        vols = self.provider.volumes
        vols.detach(self.service.volume_id)
        if src_key.region != dst.key.region:
            # EBS volumes are AZ-scoped: moving to any other zone switches to
            # the replica copied during prep (over the LAN within a geo, over
            # the WAN across geos — the WAN copy time is in the prep window).
            clone = vols.clone_to_zone(self.service.volume_id, dst.key.region)
            self.service.volume_id = clone.volume_id
        vols.attach(self.service.volume_id, dst.leases[0].lease_id, dst.key.region)
        return self.provider.vpc.bind(self.service.address,
                                      dst.leases[0].lease_id, dst.key.region)

    # -------------------------------------------------------------- helpers
    def _key_str(self, key: MarketKey) -> str:
        s = self._keystr_cache.get(key)
        if s is None:
            s = self._keystr_cache[key] = str(key)
        return s

    def _market(self, key: MarketKey):
        return self.provider.market(key)

    def _bid(self, key: MarketKey) -> float:
        return self.bidding.bid_price(self._market(key), self.engine.now)

    def _current_spot_rate(self, t: float) -> float:
        assert self.placement is not None
        return self.strategy.spot_rate(
            self.placement.key, self._market(self.placement.key).price_at(t)
        )

    def _disk_copy_s(self, src: MarketKey, dst: MarketKey) -> float:
        cached = self._disk_copy_cache.get((src, dst))
        if cached is not None:
            return cached
        # Fault injection may stretch WAN copies (testkit FaultPlan); a
        # plain provider has no such attribute and factors out to 1.
        factor = getattr(self.provider, "disk_copy_factor", 1.0)
        out = factor * disk_copy_seconds_between(
            self.service_disk_gib, src.region, dst.region
        )
        self._disk_copy_cache[(src, dst)] = out
        return out

    def _planned_lead(self, source: MarketKey) -> float:
        """Lead before a billing boundary at which to evaluate moves.

        Long enough to start the slowest plausible target server,
        pre-stage the migration and copy disk state cross-region, so the
        blackout lands just before the boundary. Capped at half an hour so
        boundary checks are never skipped.

        Deterministic per source (the planning model is evaluated with
        ``rng=None`` and candidate markets/links are fixed for a run), so
        the answer is memoized per market key.
        """
        cached = self._lead_cache.get(source)
        if cached is not None:
            return cached
        mem = self.strategy.migration_memory(source)
        worst_prep = 0.0
        worst_disk = 0.0
        for key in self.strategy.candidate_markets(self.provider):
            link = link_between(source.region, key.region)
            timing = self.model.planned(mem, link, rng=None)
            worst_prep = max(worst_prep, timing.total_s)
            worst_disk = max(worst_disk, self._disk_copy_s(source, key))
        geo = region_of(source.region).geo
        startup = max(STARTUP_MEANS_S["spot"][geo], STARTUP_MEANS_S["on_demand"][geo])
        lead = min(
            startup + worst_prep + worst_disk + self.LEAD_MARGIN_S,
            0.5 * SECONDS_PER_HOUR,
        )
        self._lead_cache[source] = lead
        return lead

    def _tenure(self, now: float) -> _Tenure:
        """The current placement's boundary-loop constants, built once per
        placement and keyed on its identity (``_acquire`` never mutates a
        placement's leases afterwards).

        The memoised revocation warning stays exact between visits: the
        first bid crossing at or after ``t`` is monotone in ``t``, so every
        ``now`` up to and including the memoised instant yields the same
        answer. It is recomputed only once ``now`` reaches it.
        """
        tenure = self._tenure_memo
        placement = self.placement
        if tenure is None or tenure.placement is not placement:
            assert placement is not None
            tenure = self._tenure_memo = _Tenure(self, placement, now)
        elif tenure.warning is not None and now >= tenure.warning:
            tenure.warning = tenure.market.revocation_warning_time(tenure.bid, now)
        return tenure

    def _best_local_on_demand(self, source: MarketKey):
        """Cheapest on-demand placement in the source's own region, falling
        back to the global best when the strategy has no local candidate."""
        from repro.core.strategies import PlacementTarget

        if not self.strategy.allows_on_demand:
            return None
        best: Optional[PlacementTarget] = None
        for key in self.strategy.candidate_markets(self.provider):
            if key.region != source.region:
                continue
            rate = self.strategy.on_demand_rate(self.provider, key)
            if best is None or rate < best.rate:
                best = PlacementTarget(
                    key=key, n_servers=self.strategy.servers_needed(key), rate=rate
                )
        return best or self.strategy.best_on_demand_target(self.provider)

    def _record_migration(
        self, kind: str, start: float, end: float, downtime: float, src: str, dst: str
    ) -> None:
        self.migrations.append(
            MigrationRecord(
                kind=kind,
                started_at=start,
                completed_at=end,
                downtime_s=downtime,
                source=src,
                target=dst,
            )
        )
        self.metrics.counter(f"migrations.{kind}").inc()

    def _blackout(self, start: float, end: float, cause: str, degraded_s: float) -> None:
        """Record a service blackout (clipped to the horizon) plus any
        lazy-restore degradation window that follows it."""
        if self.availability.window_start is None:
            return
        clipped_end = min(end, self.horizon)
        self.availability.record_downtime(start, clipped_end, cause)
        if self.sink.enabled:
            self.sink.emit(
                ServiceBlackout(
                    t=start, cause=cause, start=start, end=clipped_end, degraded_s=degraded_s
                )
            )
        self.metrics.histogram("downtime_s").observe(max(0.0, clipped_end - start))
        self.metrics.counter(f"blackouts.{cause}").inc()
        if degraded_s > 0 and end < self.horizon:
            self.availability.record_degraded(
                end, min(end + degraded_s, self.horizon), f"{cause}-degraded"
            )

    # ============================================================= main loop
    def _main(self) -> Generator:
        yield from self._initial_placement(self.engine.now)
        while self.engine.now < self.horizon and self._placement is not None:
            if self._placement.kind is LeaseKind.SPOT:
                yield from self._spot_phase()
            else:
                yield from self._on_demand_phase()
        self._finalize()

    def _finalize(self) -> None:
        now = min(self.engine.now, self.horizon)
        if self.placement is not None:
            self._release(self.placement, now, revoked=False, reason="horizon")
            self.placement = None
        if self.service is not None:
            self.provider.volumes.detach(self.service.volume_id)
            self.provider.vpc.unbind(self.service.address)
        if self.availability.window_start is None:
            # The service never came up (degenerate short horizons).
            self.availability.open_window(now)
        self.availability.close_window(self.horizon)

    # ----------------------------------------------------- initial placement
    def _initial_placement(self, t: float) -> Generator:
        spot = self.strategy.best_spot_target(self.provider, self.bidding, t)
        od = self.strategy.best_on_demand_target(self.provider)
        if spot is not None and (od is None or spot.rate < od.rate):
            self.placement = self._acquire(spot.key, spot.n_servers, LeaseKind.SPOT, t)
        elif od is not None:
            self.placement = self._acquire(od.key, od.n_servers, LeaseKind.ON_DEMAND, t)
        else:
            # Pure spot with the market currently above the bid: wait for it.
            key = self.strategy.candidate_markets(self.provider)[0]
            grant = self._market(key).next_grant_time(self._bid(key), t)
            if grant is None or grant >= self.horizon:
                self.availability.open_window(t)
                self.availability.record_downtime(t, self.horizon, "waiting-spot")
                yield Timeout(max(0.0, self.horizon - t))
                return
            yield Timeout(grant - t)
            n = self.strategy.servers_needed(key)
            self.placement = self._acquire(key, n, LeaseKind.SPOT, grant)
        ready = min(self.placement.ready_at, self.horizon)
        yield Timeout(max(0.0, ready - self.engine.now))
        self.availability.open_window(ready)
        self._provision_service(self.placement, ready)

    # ------------------------------------------------------------ spot phase
    def _spot_phase(self) -> Generator:
        assert self._placement is not None and self._placement.kind is LeaseKind.SPOT
        now = self.engine.now
        tenure = self._tenure(now)
        warning = tenure.warning
        t_next = _boundary_check_after(tenure.anchor, now, tenure.lead)
        if t_next > self.horizon:
            t_next = self.horizon
        if warning is not None and warning < t_next:
            t_next = warning
        yield Timeout(t_next - now if t_next > now else 0.0)
        now = self.engine.now
        if now >= self.horizon:
            return
        if warning is not None and now >= warning - 1e-9:
            yield from self._forced_migration(warning)
        else:
            yield from self._boundary_decision_on_spot(now)

    def decide_spot_boundary(self, now: float) -> BoundaryDecision:
        """Evaluate the planned-migration step at a boundary check on spot.

        Side-effect free except for narration to ``sink`` — no leases are
        touched, no RNG is drawn, no metrics move. Both engines call this
        with the same ``now`` and read the same answer.
        """
        placement = self._placement
        assert placement is not None
        tenure = self._tenure(now)
        market = tenure.market
        price = market.price_at(now)
        od_price = market.on_demand_price

        if self.sink.enabled:
            self.sink.emit(
                BillingTick(
                    t=now,
                    market=self._key_str(placement.key),
                    price=price,
                    on_demand_price=od_price,
                    boundary=now + tenure.lead,
                )
            )

        if self.bidding.wants_planned_migration(price, od_price):
            if self.sink.enabled:
                rose = market.last_rise_above(od_price, now)
                self.sink.emit(
                    PriceCrossing(
                        t=now if rose is None else rose,
                        market=str(placement.key),
                        price=price,
                        threshold=od_price,
                        direction="above-on-demand",
                    )
                )
            # Price above on-demand here: leave at the boundary, to the
            # cheapest spot sibling if one beats on-demand, else on-demand.
            od = self.strategy.best_on_demand_target(self.provider)
            alt = self.strategy.best_spot_target(
                self.provider, self.bidding, now, exclude=placement.key
            )
            if alt is not None and (od is None or alt.rate < od.rate):
                return BoundaryDecision("migrate", alt.key, alt.n_servers,
                                        LeaseKind.SPOT, "planned")
            if od is not None:
                return BoundaryDecision("migrate", od.key, od.n_servers,
                                        LeaseKind.ON_DEMAND, "planned")
            # Pure spot has no fallback: stay; a later boundary or the
            # revocation path (price > bid) handles it.
            return _STAY

        # Price is fine here. The opportunistic-switching extension (off by
        # default — the paper's algorithm only changes markets inside the
        # planned step) may still chase a sufficiently cheaper sibling,
        # subject to rate hysteresis and a dwell time.
        if not self.strategy.opportunistic_switching:
            return _STAY
        if now - self._last_spot_switch < self.strategy.min_dwell_s:
            return _STAY
        alt = self.strategy.best_spot_target(
            self.provider, self.bidding, now, exclude=placement.key
        )
        if alt is None:
            return _STAY
        if alt.rate < self._current_spot_rate(now) * self.strategy.improvement_factor:
            return BoundaryDecision("migrate", alt.key, alt.n_servers,
                                    LeaseKind.SPOT, "spot-switch")
        return _STAY

    def _boundary_decision_on_spot(self, now: float) -> Iterable:
        """Apply the planned-migration step at ``now``.

        Returns what the phase should ``yield from``: the migration, or an
        empty tuple to stay. A plain method rather than a generator, so the
        common stay costs no generator frame.
        """
        decision = self.decide_spot_boundary(now)
        if not decision.migrates:
            return ()
        assert decision.target_key is not None and decision.target_kind is not None
        return self._voluntary_migration(
            now, decision.target_key, decision.n_servers,
            decision.target_kind, decision.kind,
        )

    # ------------------------------------------------------- on-demand phase
    def _on_demand_phase(self) -> Generator:
        assert self._placement is not None and self._placement.kind is LeaseKind.ON_DEMAND
        now = self.engine.now
        tenure = self._tenure(now)
        check = _boundary_check_after(tenure.anchor, now, tenure.lead)
        if check > self.horizon:
            check = self.horizon
        yield Timeout(check - now if check > now else 0.0)
        now = self.engine.now
        if now >= self.horizon:
            return
        decision = self.decide_on_demand_boundary(now)
        if decision.migrates:
            assert decision.target_key is not None
            yield from self._voluntary_migration(now, decision.target_key,
                                                 decision.n_servers,
                                                 LeaseKind.SPOT, "reverse")

    def _reverse_wanted(self, key, price: float, od_single: float) -> bool:
        """Evaluate the reverse predicate for the winning spot candidate.

        A hook so :class:`~repro.runtime.vector.VectorScheduler` can record
        the compared price into its per-market reverse band (cross-run
        fusion); the comparison itself is the policy's unchanged scalar
        predicate.
        """
        return self.bidding.wants_reverse_migration(price, od_single)

    def decide_on_demand_boundary(self, now: float) -> BoundaryDecision:
        """Evaluate the reverse-migration step at a boundary check on
        on-demand. Side-effect free except for narration to ``sink``."""
        placement = self.placement
        assert placement is not None
        if self.sink.enabled:
            tenure = self._tenure(now)
            own = tenure.market
            self.sink.emit(
                BillingTick(
                    t=now,
                    market=self._key_str(placement.key),
                    price=own.price_at(now),
                    on_demand_price=own.on_demand_price,
                    boundary=now + tenure.lead,
                )
            )
        od_rate = self.strategy.on_demand_rate(self.provider, placement.key)
        spot = self.strategy.best_spot_target(self.provider, self.bidding, now)
        if spot is None:
            return _STAY
        price = self._market(spot.key).price_at(now)
        od_single = self.provider.on_demand_price(spot.key)
        if spot.rate < od_rate and self._reverse_wanted(spot.key, price, od_single):
            if self.sink.enabled:
                fell = self._market(spot.key).last_fall_below(od_single, now)
                self.sink.emit(
                    PriceCrossing(
                        t=now if fell is None else fell,
                        market=str(spot.key),
                        price=price,
                        threshold=od_single,
                        direction="below-on-demand",
                    )
                )
            return BoundaryDecision("migrate", spot.key, spot.n_servers,
                                    LeaseKind.SPOT, "reverse")
        return _STAY

    # ------------------------------------------------------------ migrations
    def _voluntary_migration(
        self,
        now: float,
        target_key: MarketKey,
        n_servers: int,
        target_kind: LeaseKind,
        kind: str,
    ) -> Generator:
        """A planned / reverse / spot-switch migration starting at ``now``.

        Sequence: request the target fleet, pre-stage state while the source
        keeps serving, suspend once both the state and the target are ready,
        blackout for the mechanism's downtime, resume on the target. If the
        source is a spot fleet and the price crosses the bid mid-flight, the
        move degenerates into a forced migration (source-revocation race).
        If the *target* is a spot fleet that would be revoked before the
        blackout even starts, the move is aborted and the source keeps
        serving.
        """
        placement = self.placement
        assert placement is not None
        source_key = placement.key
        mem = self.strategy.migration_memory(source_key)
        link = link_between(source_key.region, target_key.region)

        target = self._acquire(target_key, n_servers, target_kind, now)
        timing = self.model.planned(mem, link, self.rng)
        disk_s = self._disk_copy_s(source_key, target_key)
        prep_end = max(now + timing.prep_s + disk_s, target.ready_at)
        suspend_at = prep_end
        resume_at = suspend_at + timing.downtime_s

        # Source-revocation race (only when the source is a spot fleet).
        if placement.kind is LeaseKind.SPOT:
            bid = placement.leases[0].bid
            assert bid is not None
            warn = self._market(source_key).revocation_warning_time(bid, now)
            if warn is not None and warn < suspend_at:
                # The platform wins the race: cancel the voluntary target
                # (unless it is the on-demand server we need anyway) and
                # take the forced path from the warning instant.
                yield Timeout(max(0.0, warn - now))
                reuse = target if target_kind is LeaseKind.ON_DEMAND else None
                if reuse is None:
                    self._release(target, self.engine.now, revoked=False, reason="cancelled")
                yield from self._forced_migration(warn, prebuilt_target=reuse)
                return

        # Target-revocation race (only when the target is a spot fleet):
        # abort rather than land on a server about to vanish.
        if target_kind is LeaseKind.SPOT:
            tbid = target.leases[0].bid
            assert tbid is not None
            twarn = self._market(target_key).revocation_warning_time(tbid, now)
            if twarn is not None and twarn < resume_at + self.provider.grace_s:
                yield Timeout(max(0.0, min(twarn, self.horizon) - now))
                self._release(target, self.engine.now, revoked=False, reason="aborted-target")
                self._record_migration(
                    f"aborted-{kind}", now, self.engine.now, 0.0,
                    self._key_str(source_key), self._key_str(target_key),
                )
                if self.sink.enabled:
                    self.sink.emit(
                        MigrationAborted(
                            t=self.engine.now,
                            kind=kind,
                            source=str(source_key),
                            target=str(target_key),
                            reason="target-revoked",
                        )
                    )
                return

        if suspend_at >= self.horizon:
            # Migration cannot finish inside the window; cancel it.
            self._release(target, now, revoked=False, reason="horizon-cancel")
            if self.sink.enabled:
                self.sink.emit(
                    MigrationAborted(
                        t=now,
                        kind=kind,
                        source=str(source_key),
                        target=str(target_key),
                        reason="horizon",
                    )
                )
            yield Timeout(max(0.0, self.horizon - now))
            return

        yield Timeout(suspend_at - now)
        self._write_checkpoint(suspend_at)
        self._release(placement, suspend_at, revoked=False, reason=kind)
        self.placement = target
        rebind = self._move_service(source_key, target, suspend_at)
        resume_at += rebind
        if target_kind is LeaseKind.SPOT:
            self._last_spot_switch = suspend_at
        self._blackout(suspend_at, resume_at, f"{kind}-migration", timing.degraded_s)
        self._record_migration(
            kind, now, resume_at, timing.downtime_s + rebind,
            self._key_str(source_key), self._key_str(target_key),
        )
        if self.sink.enabled:
            next_cross = None
            if placement.kind is LeaseKind.SPOT and placement.leases[0].bid is not None:
                # Where the abandoned market's price would next have crossed
                # the bid — the revocation a proactive move side-stepped.
                next_cross = self._market(source_key).revocation_warning_time(
                    placement.leases[0].bid, now
                )
            self.sink.emit(
                VoluntaryMigration(
                    t=resume_at,
                    kind=kind,
                    source=str(source_key),
                    target=str(target_key),
                    started_at=now,
                    downtime_s=timing.downtime_s + rebind,
                    next_bid_crossing=next_cross,
                )
            )
        yield Timeout(max(0.0, min(resume_at, self.horizon) - suspend_at))

    def _forced_migration(
        self, warning: float, prebuilt_target: Optional[_Placement] = None
    ) -> Generator:
        """Handle a revocation warning at time ``warning``.

        Pure-spot strategies have no fallback: the service rides the grace
        window, checkpoints, and stays down until the market price returns
        below the bid and a new spot fleet boots.
        """
        placement = self.placement
        assert placement is not None and placement.kind is LeaseKind.SPOT
        source_key = placement.key
        mem = self.strategy.migration_memory(source_key)
        grace = self.provider.grace_s
        terminate_at = warning + grace

        bid = placement.leases[0].bid
        assert bid is not None
        if self.sink.enabled:
            price = self._market(source_key).price_at(warning)
            self.sink.emit(
                PriceCrossing(
                    t=warning,
                    market=str(source_key),
                    price=price,
                    threshold=bid,
                    direction="above-bid",
                )
            )
            self.sink.emit(
                RevocationWarning(
                    t=warning, market=str(source_key), bid=bid, price=price, grace_s=grace
                )
            )
        self.metrics.histogram("revocation_lead_s").observe(
            warning - placement.leases[0].requested_at
        )

        if not self.strategy.allows_on_demand:
            yield from self._pure_spot_outage(warning)
            return

        if prebuilt_target is not None:
            target = prebuilt_target
        else:
            # A forced migration races the grace window: the replacement
            # on-demand server must be in the *source* region so the restore
            # reads the checkpoint volume over the LAN. Cross-region
            # consolidation, if worthwhile, happens later as a planned move.
            od = self._best_local_on_demand(source_key)
            if od is None:
                raise SchedulingError("forced migration with no on-demand fallback")
            target = self._acquire(od.key, od.n_servers, LeaseKind.ON_DEMAND, warning)
        target_delay = max(0.0, target.ready_at - warning)
        link = link_between(source_key.region, target.key.region)
        timing = self.model.forced(mem, link, grace, target_delay, self.rng)
        suspend_at = warning + timing.prep_s
        resume_at = suspend_at + timing.downtime_s

        yield Timeout(max(0.0, min(terminate_at, self.horizon) - self.engine.now))
        self._write_checkpoint(min(suspend_at, self.horizon))
        self._release(placement, min(terminate_at, self.horizon), revoked=True, reason="revoked")
        if self.sink.enabled:
            self.sink.emit(
                Revocation(
                    t=min(terminate_at, self.horizon),
                    market=str(source_key),
                    bid=bid,
                    warned_at=warning,
                )
            )
        self.metrics.counter("revocations").inc()
        self.placement = target
        rebind = self._move_service(source_key, target, terminate_at)
        resume_at += rebind
        self._blackout(suspend_at, resume_at, "forced-migration", timing.degraded_s)
        self._record_migration(
            "forced", warning, resume_at, timing.downtime_s + rebind,
            self._key_str(source_key), self._key_str(target.key),
        )
        if self.sink.enabled:
            self.sink.emit(
                ForcedMigration(
                    t=resume_at,
                    source=str(source_key),
                    target=str(target.key),
                    started_at=warning,
                    downtime_s=timing.downtime_s + rebind,
                )
            )
            self.sink.emit(
                CheckpointRestore(
                    t=resume_at, market=str(target.key), downtime_s=timing.downtime_s + rebind
                )
            )
        yield Timeout(max(0.0, min(resume_at, self.horizon) - self.engine.now))

    def _pure_spot_outage(self, warning: float) -> Generator:
        """Pure-spot revocation: checkpoint, go dark, return when cheap.

        When the strategy is not ``fault_tolerant`` there is no
        checkpoint to write: the service rides the (free) revoked
        partial hour right up to termination, and on re-grant it
        *recomputes* its in-memory state from the durable volume instead
        of restoring (Alourani & Kshemkalyani).
        """
        placement = self.placement
        assert placement is not None
        key = placement.key
        mem = self.strategy.migration_memory(key)
        grace = self.provider.grace_s
        bid = placement.leases[0].bid
        assert bid is not None
        fault_tolerant = self.strategy.fault_tolerant
        if fault_tolerant:
            ckpt = self.model.params.checkpointer(mem)
            inc = min(ckpt.final_increment(self.rng).suspend_write_s, grace)
        else:
            inc = 0.0
        suspend_at = warning + grace - inc
        terminate_at = warning + grace

        yield Timeout(max(0.0, min(terminate_at, self.horizon) - self.engine.now))
        if fault_tolerant:
            self._write_checkpoint(min(suspend_at, self.horizon))
        self._release(placement, min(terminate_at, self.horizon), revoked=True, reason="revoked")
        if self.sink.enabled:
            self.sink.emit(
                Revocation(
                    t=min(terminate_at, self.horizon),
                    market=str(key),
                    bid=bid,
                    warned_at=warning,
                )
            )
        self.metrics.counter("revocations").inc()
        if self.service is not None:
            self.provider.volumes.detach(self.service.volume_id)
            self.provider.vpc.unbind(self.service.address)
        self.placement = None

        grant = self._market(key).next_grant_time(bid, terminate_at)
        if grant is None or grant >= self.horizon:
            self._blackout(suspend_at, self.horizon, "waiting-spot", 0.0)
            self._record_migration(
                "outage", warning, self.horizon, self.horizon - suspend_at, self._key_str(key), "-"
            )
            yield Timeout(max(0.0, self.horizon - self.engine.now))
            return

        yield Timeout(max(0.0, grant - self.engine.now))
        n = self.strategy.servers_needed(key)
        target = self._acquire(key, n, LeaseKind.SPOT, grant)
        if self.service is not None:
            self.provider.volumes.attach(self.service.volume_id,
                                         target.leases[0].lease_id, key.region)
            self.provider.vpc.bind(self.service.address,
                                   target.leases[0].lease_id, key.region)
        if fault_tolerant:
            link = link_between(key.region, key.region)
            # Restore once the replacement fleet boots; reuse the forced-path
            # restore arithmetic with the grace window already behind us.
            timing = self.model.forced(
                mem, link, 0.0, max(0.0, target.ready_at - grant), self.rng
            )
            downtime_s = timing.downtime_s
            degraded_s = timing.degraded_s
        else:
            # No checkpoint exists: boot, then rebuild in-memory state
            # from the durable volume at a flat recompute cost.
            downtime_s = max(0.0, target.ready_at - grant) + float(
                getattr(self.strategy, "recompute_s", 0.0)
            )
            degraded_s = 0.0
        resume_at = grant + downtime_s
        self.placement = target
        self._blackout(suspend_at, resume_at, "waiting-spot", degraded_s)
        self._record_migration(
            "outage", warning, resume_at, resume_at - suspend_at,
            self._key_str(key), self._key_str(key),
        )
        if fault_tolerant and self.sink.enabled:
            self.sink.emit(
                CheckpointRestore(t=resume_at, market=str(key), downtime_s=downtime_s)
            )
        yield Timeout(max(0.0, min(resume_at, self.horizon) - self.engine.now))
