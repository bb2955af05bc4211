"""The typed trace-event model: every decision the scheduler can make.

Each event is a frozen dataclass with a stable wire name (``etype``) and
JSON-safe fields, so a stream of events serialises losslessly to JSONL and
back. The events mirror the paper's decision vocabulary (Section 3.1):
bids placed, leases acquired and terminated, the price crossing the bid or
the on-demand price, voluntary (planned/reverse/switch) migrations, forced
migrations inside the revocation grace window, checkpoint writes/restores,
service blackouts, and the billing-boundary evaluations that drive it all.

Emission sites: :class:`~repro.core.scheduler.CloudScheduler` (decisions,
migrations, checkpoints, blackouts, billing ticks),
:class:`~repro.cloud.provider.CloudProvider` (lease lifecycle), and
:class:`~repro.simulator.engine.Engine` (run completion) — each behind a
:class:`~repro.obs.sinks.TraceSink` that defaults to the disabled null
sink, so with tracing off no event object is ever constructed.

``EVENT_TYPES`` maps wire names back to classes; :func:`event_from_dict`
inverts :meth:`TraceEvent.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Type

__all__ = [
    "TraceEvent",
    "BidPlaced",
    "LeaseAcquired",
    "LeaseTerminated",
    "PriceCrossing",
    "BillingTick",
    "RevocationWarning",
    "Revocation",
    "VoluntaryMigration",
    "ForcedMigration",
    "MigrationAborted",
    "CheckpointWrite",
    "CheckpointRestore",
    "ServiceBlackout",
    "EngineRunCompleted",
    "EVENT_TYPES",
    "event_from_dict",
]

#: Wire name -> event class, populated by :func:`_register`.
EVENT_TYPES: Dict[str, Type["TraceEvent"]] = {}


def _register(cls: Type["TraceEvent"]) -> Type["TraceEvent"]:
    if not cls.etype or cls.etype in EVENT_TYPES:
        raise ValueError(f"duplicate or empty event type {cls.etype!r}")
    EVENT_TYPES[cls.etype] = cls
    return cls


@dataclass(frozen=True)
class TraceEvent:
    """Base event: a simulation instant plus typed payload fields.

    ``t`` is the simulation time (seconds) the event describes. Events are
    emitted in processing order, which is chronological except for the few
    that describe a just-detected past instant (a price crossing noticed at
    a billing boundary) or a committed future one (a migration's resume
    time recorded at suspension) — sort by ``t`` for a strict timeline.
    """

    etype: ClassVar[str] = ""

    t: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict with the wire ``type`` first, then the fields.

        The generated ``__init__`` sets the fields in declaration order, so
        the instance ``__dict__`` already holds them in that order.
        """
        out: Dict[str, Any] = {"type": self.etype}
        out.update(self.__dict__)
        return out


def event_from_dict(data: Dict[str, Any]) -> TraceEvent:
    """Rebuild an event from :meth:`TraceEvent.to_dict` output."""
    payload = dict(data)
    etype = payload.pop("type", None)
    cls = EVENT_TYPES.get(etype)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown trace event type {etype!r}")
    return cls(**payload)


# ------------------------------------------------------------------ bidding
@_register
@dataclass(frozen=True)
class BidPlaced(TraceEvent):
    """A spot request was submitted at ``bid`` while the price was ``price``."""

    etype: ClassVar[str] = "bid-placed"

    market: str
    bid: float
    price: float
    policy: str
    n_servers: int = 1
    rationale: str = ""


# ------------------------------------------------------------------- leases
@_register
@dataclass(frozen=True)
class LeaseAcquired(TraceEvent):
    """The provider granted a lease; it becomes usable at ``ready_at``."""

    etype: ClassVar[str] = "lease-acquired"

    market: str
    kind: str  #: 'spot' | 'on_demand'
    lease_id: str
    ready_at: float
    bid: Optional[float] = None  #: spot only


@_register
@dataclass(frozen=True)
class LeaseTerminated(TraceEvent):
    """A lease ended; ``billed`` is its total materialised cost."""

    etype: ClassVar[str] = "lease-terminated"

    market: str
    kind: str
    lease_id: str
    reason: str
    revoked: bool
    billed: float


# ------------------------------------------------------------------- prices
@_register
@dataclass(frozen=True)
class PriceCrossing(TraceEvent):
    """The spot price crossed a decision threshold.

    ``direction`` is one of ``above-bid`` (revocation trigger),
    ``above-on-demand`` (planned-migration trigger) or
    ``below-on-demand`` (reverse-migration trigger); ``t`` is the crossing
    instant itself, which for boundary-evaluated triggers can precede the
    instant the scheduler acted on it.
    """

    etype: ClassVar[str] = "price-crossing"

    market: str
    price: float
    threshold: float
    direction: str


@_register
@dataclass(frozen=True)
class BillingTick(TraceEvent):
    """A billing-boundary evaluation: the scheduler weighed a move.

    ``t`` is a lead time ahead of the boundary at ``boundary``
    (lead-time rule, Section 3.1)."""

    etype: ClassVar[str] = "billing-tick"

    market: str
    price: float
    on_demand_price: float
    boundary: float


# -------------------------------------------------------------- revocations
@_register
@dataclass(frozen=True)
class RevocationWarning(TraceEvent):
    """The provider warned of revocation: the price exceeded the bid.

    Forcible termination follows ``grace_s`` seconds after ``t``."""

    etype: ClassVar[str] = "revocation-warning"

    market: str
    bid: float
    price: float
    grace_s: float


@_register
@dataclass(frozen=True)
class Revocation(TraceEvent):
    """The spot fleet was forcibly terminated (grace window expired)."""

    etype: ClassVar[str] = "revocation"

    market: str
    bid: float
    warned_at: float


# --------------------------------------------------------------- migrations
@_register
@dataclass(frozen=True)
class VoluntaryMigration(TraceEvent):
    """A scheduler-initiated move completed; ``t`` is the resume instant.

    ``next_bid_crossing`` is the instant (known to the simulator, not the
    scheduler) at which the source market's price would next have crossed
    the bid — when it lands shortly after a planned move, the move
    pre-empted a revocation, which is the paper's Fig-6 narrative.
    """

    etype: ClassVar[str] = "voluntary-migration"

    kind: str  #: 'planned' | 'reverse' | 'spot-switch'
    source: str
    target: str
    started_at: float
    downtime_s: float
    next_bid_crossing: Optional[float] = None


@_register
@dataclass(frozen=True)
class ForcedMigration(TraceEvent):
    """A revocation-driven move completed; ``t`` is the resume instant."""

    etype: ClassVar[str] = "forced-migration"

    source: str
    target: str
    started_at: float  #: the warning instant
    downtime_s: float


@_register
@dataclass(frozen=True)
class MigrationAborted(TraceEvent):
    """A voluntary move was cancelled before the blackout started."""

    etype: ClassVar[str] = "migration-aborted"

    kind: str
    source: str
    target: str
    reason: str  #: 'target-revoked' | 'horizon'


# -------------------------------------------------------------- checkpoints
@_register
@dataclass(frozen=True)
class CheckpointWrite(TraceEvent):
    """The final checkpoint increment was written to the service volume."""

    etype: ClassVar[str] = "checkpoint-write"

    market: str
    size_gib: float


@_register
@dataclass(frozen=True)
class CheckpointRestore(TraceEvent):
    """The service resumed from its checkpoint on the target fleet."""

    etype: ClassVar[str] = "checkpoint-restore"

    market: str
    downtime_s: float


# ------------------------------------------------------------- availability
@_register
@dataclass(frozen=True)
class ServiceBlackout(TraceEvent):
    """One contiguous unavailability window of the hosted service.

    Spans ``[start, end)`` plus any lazy-restore degradation tail of
    ``degraded_s`` seconds."""

    etype: ClassVar[str] = "service-blackout"

    cause: str
    start: float
    end: float
    degraded_s: float


# ------------------------------------------------------------------- engine
@_register
@dataclass(frozen=True)
class EngineRunCompleted(TraceEvent):
    """The discrete-event engine finished a ``run()`` call."""

    etype: ClassVar[str] = "engine-run-completed"

    fired_events: int
