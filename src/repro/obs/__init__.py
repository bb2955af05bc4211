"""Structured observability: decision traces + run metrics (``repro.obs``).

The paper's whole argument rests on *why* the scheduler moves — proactive
migrations ahead of revocations, bounded checkpoint downtime, bid
crossings. This package makes those decisions observable without touching
the results they produce:

* :mod:`repro.obs.events` — the typed trace-event model (``BidPlaced``,
  ``PriceCrossing``, ``VoluntaryMigration``, ``Revocation``,
  ``BillingTick``, …), emitted from the scheduler, provider and engine;
* :mod:`repro.obs.sinks` — the :class:`TraceSink` protocol and the
  null and memory sinks, plus the JSONL reader. The null sink is the default
  everywhere and costs one branch per emission site — with tracing off,
  runs are byte-identical to an uninstrumented build;
* :mod:`repro.obs.metrics` — counters/gauges/histograms aggregated per
  run and merged per batch through the runtime telemetry plumbing;
* :mod:`repro.obs.capture` — :func:`observe` scopes, the one way a batch
  is watched: they collect events, metrics and run/batch telemetry across
  ``run_batch`` calls (including from pool workers) in deterministic
  submission order;
* :mod:`repro.obs.cli` — the ``repro-trace`` command
  (``repro-trace summarize trace.jsonl``).

Surfacing: ``repro-simulate --trace PATH --metrics`` and
``repro-experiments --trace PATH --metrics``; analysis helpers that turn a
trace into the paper's narrative live in :mod:`repro.analysis.decisions`.
See ``docs/TRACING.md`` for the full event reference.
"""

from repro.obs.capture import (
    ObservationScope,
    notify_batch,
    observe,
    trace_capture_active,
)
from repro.obs.events import (
    EVENT_TYPES,
    BidPlaced,
    BillingTick,
    CheckpointRestore,
    CheckpointWrite,
    EngineRunCompleted,
    ForcedMigration,
    LeaseAcquired,
    LeaseTerminated,
    MigrationAborted,
    PriceCrossing,
    Revocation,
    RevocationWarning,
    ServiceBlackout,
    TraceEvent,
    VoluntaryMigration,
    event_from_dict,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sinks import (
    NULL_SINK,
    MemorySink,
    NullSink,
    TraceSink,
    read_jsonl,
)

__all__ = [
    # events
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
    # sinks
    "TraceSink",
    "NullSink",
    "NULL_SINK",
    "MemorySink",
    "read_jsonl",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # capture
    "ObservationScope",
    "observe",
    "trace_capture_active",
    "notify_batch",
]
