"""Warm-spare pools: the sizing sweep and a shared claim/return pool.

During a forced migration a tenant briefly needs an on-demand server. A
derivative-cloud operator keeps a pool of warm spares shared by its
tenants. This module answers two questions about it.

*Sizing* — how many spares would have been enough?
:func:`concurrent_events` is the maximum number of concurrent forced
migrations, where two migrations overlap if they start within each
other's handover window (grace + startup + restore, a few minutes).
Diversified placements make co-revocations rare, so the pool can be far
smaller than the fleet; concentrated placements need spares for everyone
at once.

*Operation* — given a pool of fixed capacity shared by many tenants,
which forced migrations actually get a warm spare?
:class:`SharedSparePool` replays the claims. Its semantics (documented
in ``docs/FLEET.md``):

* a forced migration **claims** one spare at its start instant and
  **returns** it one handover window later;
* returns are processed before claims at the same instant (half-open
  occupancy, matching the sizing sweep);
* a claim is **granted** (a hit) only if the pool has a free spare *and*
  the service is below its per-service quota; otherwise it is a miss,
  recorded as ``quota`` or ``pool-exhausted``;
* simultaneous claims are ordered by service name — deterministic, and
  independent of how the runs were scheduled across worker processes.

A miss is not an outage: the simulation already models the tenant
falling back to a cold on-demand acquisition inside the grace window.
The pool quantifies how often the fleet *would have* handed over to a
warm spare instead — the hit rate is the derivative-cloud operator's
quality metric, and the miss count bounds the extra cold-start latency
tenants absorbed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SchedulingError

__all__ = [
    "DEFAULT_HANDOVER_WINDOW_S",
    "SpareEvent",
    "SparePoolOutcome",
    "SharedSparePool",
    "concurrent_events",
]

#: Grace window + on-demand startup + restore, rounded up.
DEFAULT_HANDOVER_WINDOW_S = 360.0

#: Miss reasons.
MISS_QUOTA = "quota"
MISS_EXHAUSTED = "pool-exhausted"


def concurrent_events(times: Sequence[float], window_s: float) -> int:
    """Maximum number of events active at once, each lasting ``window_s``.

    Classic sweep: +1 at each start, -1 at start+window, take the running
    maximum. Windows are half-open: an event ending at instant *t* is no
    longer active for one starting at *t*.
    """
    if window_s <= 0:
        raise SchedulingError("window must be positive")
    ts = np.asarray(sorted(times), dtype=float)
    if ts.size == 0:
        return 0
    starts = ts
    ends = ts + window_s
    points = np.concatenate([
        np.stack([starts, np.ones_like(starts)], axis=1),
        np.stack([ends, -np.ones_like(ends)], axis=1),
    ])
    # sort by time; ends before starts at the same instant (half-open)
    order = np.lexsort((points[:, 1], points[:, 0]))
    running = np.cumsum(points[order, 1])
    return int(running.max())


@dataclass(frozen=True)
class SpareEvent:
    """One claim's outcome in the shared pool's event log."""

    t: float
    service: str
    granted: bool
    #: ``""`` for a hit, else :data:`MISS_QUOTA` or :data:`MISS_EXHAUSTED`.
    miss_reason: str
    #: Spares held by the whole fleet immediately after this claim.
    in_use_after: int


@dataclass(frozen=True)
class ServiceSpareStats:
    """Per-service claim accounting."""

    claims: int
    hits: int
    misses: int


@dataclass(frozen=True)
class SparePoolOutcome:
    """The pool's full accounting over one fleet run."""

    capacity: int
    handover_window_s: float
    events: Tuple[SpareEvent, ...]
    claims: int
    hits: int
    misses: int
    quota_misses: int
    exhausted_misses: int
    peak_in_use: int
    per_service: Dict[str, ServiceSpareStats] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.claims if self.claims else 1.0


class SharedSparePool:
    """A fixed pool of warm on-demand spares shared by many services.

    ``quotas`` maps service name to its maximum concurrently held spares;
    services absent from the map get ``default_quota``. The pool is a
    pure replay over a claim sequence — no hidden state between calls —
    so outcomes are deterministic functions of their inputs.
    """

    def __init__(
        self,
        capacity: int,
        handover_window_s: float = DEFAULT_HANDOVER_WINDOW_S,
        quotas: Dict[str, int] | None = None,
        default_quota: int = 1,
    ) -> None:
        if capacity < 0:
            raise ConfigurationError("spare capacity must be >= 0")
        if handover_window_s <= 0:
            raise ConfigurationError("handover window must be positive")
        if default_quota < 0:
            raise ConfigurationError("default quota must be >= 0")
        for name, q in (quotas or {}).items():
            if q < 0:
                raise ConfigurationError(f"{name}: quota must be >= 0")
        self.capacity = int(capacity)
        self.handover_window_s = float(handover_window_s)
        self.quotas = dict(quotas or {})
        self.default_quota = int(default_quota)

    def quota_for(self, service: str) -> int:
        return self.quotas.get(service, self.default_quota)

    def replay(self, claims: Sequence[Tuple[float, str]]) -> SparePoolOutcome:
        """Run a ``(instant, service)`` claim sequence through the pool."""
        ordered = sorted(
            ((float(t), str(name)) for t, name in claims),
            key=lambda c: (c[0], c[1]),
        )
        releases: List[Tuple[float, str]] = []  # min-heap of (release_t, service)
        held: Dict[str, int] = {}
        in_use = 0
        peak = 0
        events: List[SpareEvent] = []
        hits = misses = quota_misses = exhausted_misses = 0
        per_claims: Dict[str, int] = {}
        per_hits: Dict[str, int] = {}
        for t, name in ordered:
            # Returns due at exactly t free their spare before this claim.
            while releases and releases[0][0] <= t:
                _, done = heapq.heappop(releases)
                held[done] -= 1
                in_use -= 1
            per_claims[name] = per_claims.get(name, 0) + 1
            if held.get(name, 0) >= self.quota_for(name):
                misses += 1
                quota_misses += 1
                events.append(SpareEvent(t, name, False, MISS_QUOTA, in_use))
                continue
            if in_use >= self.capacity:
                misses += 1
                exhausted_misses += 1
                events.append(SpareEvent(t, name, False, MISS_EXHAUSTED, in_use))
                continue
            hits += 1
            per_hits[name] = per_hits.get(name, 0) + 1
            held[name] = held.get(name, 0) + 1
            in_use += 1
            peak = max(peak, in_use)
            heapq.heappush(releases, (t + self.handover_window_s, name))
            events.append(SpareEvent(t, name, True, "", in_use))
        per_service = {
            name: ServiceSpareStats(
                claims=n,
                hits=per_hits.get(name, 0),
                misses=n - per_hits.get(name, 0),
            )
            for name, n in sorted(per_claims.items())
        }
        return SparePoolOutcome(
            capacity=self.capacity,
            handover_window_s=self.handover_window_s,
            events=tuple(events),
            claims=len(ordered),
            hits=hits,
            misses=misses,
            quota_misses=quota_misses,
            exhausted_misses=exhausted_misses,
            peak_in_use=peak,
            per_service=per_service,
        )
