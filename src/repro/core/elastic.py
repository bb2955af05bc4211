"""Elastic spot fleets under time-varying demand — extension beyond the paper.

The paper's introduction motivates cloud hosting with "just-in-time
allocation of capacity to handle peak workloads": dedicated infrastructure
must be provisioned for the peak, the cloud only for the moment. This
module quantifies that argument on the spot market for the *stateless*
scale-out tier of a service (web frontends behind the always-on core that
:class:`~repro.core.scheduler.CloudScheduler` hosts):

* a :class:`DemandCurve` gives the capacity units required over time
  (e.g. a diurnal sinusoid with a weekend dip);
* :class:`ElasticSpotFleet` tracks it with one spot server per unit,
  buying in the cheapest grantable market, replacing revoked units, and
  releasing surplus units at their billing boundaries;
* the result compares against two baselines computed exactly: dedicated
  peak-provisioned capacity, and elastic on-demand capacity.

Stateless units are *replaced*, not migrated — a revocation costs capacity
(tracked as shortfall) rather than state. The shortfall metric is the
demand-weighted fraction of capacity-seconds the fleet failed to supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cloud.provider import CloudProvider, Lease
from repro.core.bidding import BiddingPolicy, ProactiveBidding
from repro.errors import ConfigurationError
from repro.simulator.engine import Engine
from repro.simulator.events import EventKind
from repro.traces.catalog import MarketKey
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

__all__ = ["DemandCurve", "ElasticResult", "ElasticSpotFleet"]


class DemandCurve:
    """Capacity units required over time (sampled hourly by the fleet)."""

    def __init__(self, fn: Callable[[float], float], peak: int) -> None:
        if peak <= 0:
            raise ConfigurationError("peak capacity must be positive")
        self._fn = fn
        self.peak = int(peak)

    def at(self, t: float) -> int:
        """Required units at time ``t`` (clamped to [0, peak])."""
        return min(max(round(self._fn(t)), 0), self.peak)

    @classmethod
    def diurnal(
        cls,
        base: int = 4,
        peak: int = 12,
        peak_hour: float = 20.0,
        weekend_factor: float = 0.7,
    ) -> "DemandCurve":
        """A day/night sinusoid with quieter weekends.

        Demand swings between ``base`` and ``peak`` with its maximum at
        ``peak_hour`` local time; days 5 and 6 of each week are scaled by
        ``weekend_factor``.
        """
        if not 0 < base <= peak:
            raise ConfigurationError("need 0 < base <= peak")

        def fn(t: float) -> float:
            hour = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
            day = int(t // SECONDS_PER_DAY) % 7
            phase = math.cos((hour - peak_hour) / 24.0 * 2.0 * math.pi)
            level = base + (peak - base) * (phase + 1.0) / 2.0
            if day >= 5:
                level *= weekend_factor
            return level

        return cls(fn, peak)

    def mean_units(self, horizon: float, step: float = 600.0) -> float:
        grid = np.arange(0.0, horizon, step)
        return float(np.mean([self.at(float(t)) for t in grid]))


@dataclass(frozen=True)
class ElasticResult:
    """Outcome of one elastic-fleet run."""

    total_cost: float
    peak_on_demand_cost: float  #: dedicated capacity provisioned for the peak
    elastic_on_demand_cost: float  #: cloud baseline: on-demand, right-sized
    shortfall_fraction: float  #: unsupplied capacity-seconds / demanded
    scale_ups: int
    scale_downs: int
    replacements: int  #: revoked units replaced

    @property
    def vs_peak_percent(self) -> float:
        return 100.0 * self.total_cost / self.peak_on_demand_cost

    @property
    def vs_elastic_od_percent(self) -> float:
        return 100.0 * self.total_cost / self.elastic_on_demand_cost


class ElasticSpotFleet:
    """Tracks a demand curve with spot servers.

    The fleet re-evaluates hourly: surplus units are released, missing
    units are bought in the cheapest grantable market (on-demand when no
    spot market is grantable). Revocation warnings trigger immediate
    replacement; the gap until the replacement boots is capacity shortfall.
    """

    TICK_S = SECONDS_PER_HOUR

    def __init__(
        self,
        engine: Engine,
        provider: CloudProvider,
        demand: DemandCurve,
        candidate_keys: List[MarketKey],
        bidding: Optional[BiddingPolicy] = None,
        horizon: float = 30 * SECONDS_PER_DAY,
        provision_lead_s: float = 2 * SECONDS_PER_HOUR,
    ) -> None:
        if not candidate_keys:
            raise ConfigurationError("need candidate markets")
        if provision_lead_s < 0:
            raise ConfigurationError("provision lead must be >= 0")
        self.engine = engine
        self.provider = provider
        self.demand = demand
        self.candidates = list(candidate_keys)
        self.bidding = bidding or ProactiveBidding()
        self.horizon = float(horizon)
        #: provision against demand this far ahead (covers boot time plus
        #: the ramp between hourly ticks; 0 = purely reactive scaling)
        self.provision_lead_s = float(provision_lead_s)
        self.active: Dict[str, Lease] = {}
        self._doomed: set = set()  #: warned units riding out their grace
        self._warnings: Dict[str, object] = {}  #: lease id -> event handle
        self.total_cost = 0.0
        self.scale_ups = 0
        self.scale_downs = 0
        self.replacements = 0
        #: (time, active_count) step samples for shortfall integration
        self._supply_log: List[tuple] = []

    # ----------------------------------------------------------------- market
    def _cheapest(self, t: float) -> Optional[MarketKey]:
        best, best_p = None, None
        for key in self.candidates:
            market = self.provider.market(key)
            bid = self.bidding.bid_price(market, t)
            if not market.grantable(bid, t):
                continue
            p = market.price_at(t)
            if best_p is None or p < best_p:
                best, best_p = key, p
        return best

    def _buy(self, t: float) -> Lease:
        key = self._cheapest(t)
        if key is not None:
            bid = self.bidding.bid_price(self.provider.market(key), t)
            lease = self.provider.request_spot(key, bid, t)
            self._arm_warning(lease)
        else:
            od_key = min(self.candidates, key=lambda k: self.provider.on_demand_price(k))
            lease = self.provider.request_on_demand(od_key, t)
        self.active[lease.lease_id] = lease
        return lease

    def _arm_warning(self, lease: Lease) -> None:
        warn = self.provider.revocation_warning_time(lease, self.engine.now)
        if warn is None or warn >= self.horizon:
            return
        handle = self.engine.schedule(
            warn,
            lambda _e, _ev, lid=lease.lease_id: self._on_warning(lid),
            kind=EventKind.REVOCATION_WARNING,
            label=f"elastic-warn-{lease.lease_id}",
        )
        self._warnings[lease.lease_id] = handle

    def _release(self, lease: Lease, t: float, *, revoked: bool) -> None:
        handle = self._warnings.pop(lease.lease_id, None)
        if handle is not None:
            handle.cancel()
        done = self.provider.terminate(lease, t, revoked=revoked)
        self.total_cost += done.total_cost
        self.active.pop(lease.lease_id, None)

    # ----------------------------------------------------------------- events
    def _on_warning(self, lease_id: str) -> None:
        lease = self.active.get(lease_id)
        if lease is None:
            return
        now = self.engine.now
        dead = min(now + self.provider.grace_s, self.horizon)
        self._doomed.add(lease_id)
        self.engine.schedule(
            dead,
            lambda _e, _ev: self._finish_revocation(lease_id),
            kind=EventKind.TERMINATION,
            label=f"elastic-revoke-{lease_id}",
        )
        # replacement ordered immediately; it boots while the doomed unit
        # rides out its grace window
        self._buy(now)
        self.replacements += 1

    def _finish_revocation(self, lease_id: str) -> None:
        lease = self.active.get(lease_id)
        if lease is None:
            return
        self._log_supply()
        self._release(lease, self.engine.now, revoked=True)
        self._doomed.discard(lease_id)
        self._log_supply()

    def _ready_count(self, t: float) -> int:
        return sum(1 for l in self.active.values() if l.ready_at <= t)

    def _log_supply(self) -> None:
        self._supply_log.append((self.engine.now, self._ready_count(self.engine.now)))

    def _tick(self) -> None:
        now = self.engine.now
        self._log_supply()
        # predictive scaling: never fall below current demand, and cover the
        # demand expected one lead-time ahead
        target = max(self.demand.at(now), self.demand.at(now + self.provision_lead_s))
        # units riding out a revocation grace window are already replaced
        # and must not count toward (or be shed from) the plan
        planned = [l for l in self.active.values() if l.lease_id not in self._doomed]
        have = len(planned)
        if have < target:
            for _ in range(target - have):
                self._buy(now)
                self.scale_ups += 1
        elif have > target:
            # shed the youngest units first (they have the least sunk hour)
            surplus = sorted(planned, key=lambda l: -l.ready_at)
            for lease in surplus[: have - target]:
                self._release(lease, now, revoked=False)
                self.scale_downs += 1
        self._log_supply()
        nxt = now + self.TICK_S
        if nxt < self.horizon:
            self.engine.schedule(nxt, lambda _e, _ev: self._tick(),
                                 kind=EventKind.TIMER, label="elastic-tick")

    # -------------------------------------------------------------------- run
    def run(self) -> ElasticResult:
        self.engine.schedule(self.engine.now, lambda _e, _ev: self._tick(),
                             kind=EventKind.TIMER, label="elastic-tick0")
        # boot-completion changes supply: sample every few minutes instead of
        # tracking each ready event (shortfall is an integral; 5-minute
        # resolution is plenty against ~5-minute boots)
        t = self.engine.now
        while t < self.horizon:
            t += 300.0
            self.engine.schedule(min(t, self.horizon), lambda _e, _ev: self._log_supply(),
                                 kind=EventKind.TIMER, label="elastic-sample")
        self.engine.run(until=self.horizon + 1.0)
        for lease in list(self.active.values()):
            self._release(lease, self.horizon, revoked=False)

        # ---- shortfall integral over the supply log
        log = sorted(self._supply_log)
        demanded = 0.0
        missed = 0.0
        for (t0, supply), (t1, _next) in zip(log, log[1:]):
            if t1 <= t0:
                continue
            target = self.demand.at(t0)
            demanded += target * (t1 - t0)
            missed += max(0, target - supply) * (t1 - t0)
        shortfall = missed / demanded if demanded > 0 else 0.0

        # ---- baselines
        od_rate = min(self.provider.on_demand_price(k) for k in self.candidates)
        hours = self.horizon / SECONDS_PER_HOUR
        peak_cost = self.demand.peak * od_rate * hours
        mean_units = self.demand.mean_units(self.horizon)
        elastic_od = mean_units * od_rate * hours

        return ElasticResult(
            total_cost=self.total_cost,
            peak_on_demand_cost=peak_cost,
            elastic_on_demand_cost=elastic_od,
            shortfall_fraction=shortfall,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            replacements=self.replacements,
        )
