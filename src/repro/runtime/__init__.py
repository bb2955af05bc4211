"""Declarative batch execution: specs in, results out, as fast as the box allows.

Every paper table/figure is a fan-out of the same scheduler over many
(seed × policy × mechanism × market) variants. This package turns one such
variant into a pickleable :class:`RunSpec`, a set of them into a
:class:`BatchSpec`, and executes batches through :func:`run_batch` — serially
by default (byte-for-byte reproducible ordering), or across worker processes
with ``jobs > 1``; either way one pipeline runs each catalog unit of a batch
through the same dedupe loop, in-process or in a pool worker. A
per-process :class:`TraceCatalogCache` of market stores guarantees that
every market trace of a (seed, horizon) sample is generated at most once in
each process, whichever catalogs and policies use it — pool workers keep
theirs warm across batches, so no catalog is ever shipped —
and :class:`RunTelemetry` / :class:`BatchTelemetry` records surface
wall-clock, events-processed, and cache-hit counters in experiment reports.
"""

from repro.core.registry import register_strategy_kind, strategy_kinds
from repro.core.simulation import RunSpec
from repro.runtime.cache import (
    CatalogKey,
    TraceCatalogCache,
    shared_catalog,
    shared_catalog_cache,
)
from repro.runtime.executor import BatchResult, run_batch
from repro.runtime.options import ExecutionOptions, add_execution_options
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
    StrategySpec,
    batch_fingerprint,
    spec_fingerprint,
    spec_fingerprints,
)
from repro.runtime.telemetry import (
    BatchTelemetry,
    RunTelemetry,
    batches_summary,
)

__all__ = [
    "BatchResult",
    "BatchSpec",
    "BatchTelemetry",
    "ENGINE_KINDS",
    "CatalogKey",
    "ExecutionOptions",
    "LEDGER_VERSION",
    "LedgerRecord",
    "LedgerState",
    "RunLedger",
    "RunSpec",
    "RunTelemetry",
    "StrategySpec",
    "TraceCatalogCache",
    "add_execution_options",
    "batch_fingerprint",
    "batches_summary",
    "register_strategy_kind",
    "resolve_ledger_path",
    "run_batch",
    "shared_catalog",
    "shared_catalog_cache",
    "spec_fingerprint",
    "spec_fingerprints",
    "strategy_kinds",
]
