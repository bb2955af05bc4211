"""Declarative batch execution: specs in, results out, as fast as the box allows.

Every paper table/figure is a fan-out of the same scheduler over many
(seed × policy × mechanism × market) variants. This package turns one such
variant into a pickleable :class:`RunSpec`, a set of them into a
:class:`BatchSpec`, and executes batches through :func:`run_batch` — serially
by default (byte-for-byte reproducible ordering), or across worker processes
with ``jobs > 1``; either way one pipeline runs each catalog unit of a batch
through the same dedupe/fusion loop, in-process or in a pool worker. A
per-process :class:`TraceCatalogCache` guarantees that N policies evaluated
on one seed pay for a single trace-catalog build in each process — pool
workers keep theirs warm across batches, so no catalog is ever shipped —
and :class:`RunTelemetry` / :class:`BatchTelemetry` records surface
wall-clock, events-processed, and cache-hit counters in experiment reports.
"""

from repro.runtime.cache import CatalogKey, TraceCatalogCache, shared_catalog_cache
from repro.runtime.executor import BatchResult, run_batch
from repro.runtime.vector import ENGINE_KINDS
from repro.runtime.ledger import (
    LEDGER_VERSION,
    LedgerRecord,
    LedgerState,
    RunLedger,
    resolve_ledger_path,
)
from repro.runtime.spec import (
    BatchSpec,
    RunSpec,
    StrategySpec,
    batch_fingerprint,
    register_strategy_kind,
    spec_fingerprint,
    strategy_kinds,
)
from repro.runtime.telemetry import (
    BatchTelemetry,
    RunTelemetry,
    TelemetryCollector,
    collect_telemetry,
)

__all__ = [
    "BatchResult",
    "BatchSpec",
    "BatchTelemetry",
    "ENGINE_KINDS",
    "CatalogKey",
    "LEDGER_VERSION",
    "LedgerRecord",
    "LedgerState",
    "RunLedger",
    "RunSpec",
    "RunTelemetry",
    "StrategySpec",
    "TelemetryCollector",
    "TraceCatalogCache",
    "batch_fingerprint",
    "collect_telemetry",
    "register_strategy_kind",
    "resolve_ledger_path",
    "run_batch",
    "shared_catalog_cache",
    "spec_fingerprint",
    "strategy_kinds",
]
