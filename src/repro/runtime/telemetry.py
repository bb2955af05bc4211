"""Run instrumentation: what each run cost, where the time went.

Every executed run yields a :class:`RunTelemetry`; every batch a
:class:`BatchTelemetry`. Callers who want cross-batch totals (the
experiment runner's footer line) open a :func:`collect_telemetry` scope —
each ``run_batch`` reports into every active collector.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "RunTelemetry",
    "BatchTelemetry",
    "TelemetryCollector",
    "collect_telemetry",
]


@dataclass(frozen=True)
class RunTelemetry:
    """Instrumentation of one scheduler run."""

    label: str
    seed: int
    wall_s: float  #: run wall-clock, including any catalog build
    events_processed: int  #: discrete events fired by the engine
    catalog_wall_s: float = 0.0  #: catalog build time (0 on a cache hit)
    catalog_cache_hit: bool = False
    #: How the run's catalog was resolved: ``"build"`` (generated here),
    #: ``"cache"`` (process-cache hit), or ``""`` when the run carried no
    #: resolvable catalog key.
    catalog_source: str = ""
    worker_pid: int = 0  #: executing process (parent pid when serial)
    #: Execution attempts consumed (1 = first try succeeded; > 1 means the
    #: executor's retry loop absorbed worker crashes).
    attempts: int = 1
    #: The run's metric-registry snapshot (:meth:`MetricsRegistry.to_dict`).
    metrics: Optional[Dict[str, Any]] = None
    #: Captured trace events as dicts, present only when the run's spec set
    #: ``capture_trace`` — dicts (not event objects) so they cross the
    #: process-pool boundary as plain picklable data.
    trace_events: Optional[Tuple[Dict[str, Any], ...]] = None
    #: True when this run was replayed from a :mod:`repro.runtime.ledger`
    #: journal instead of executed; every other field then reports the
    #: *original* execution (wall clock, worker pid, attempts).
    replayed: bool = False
    #: Which engine actually executed the run: ``"event"`` (per-event
    #: loop) or ``"vector"`` (batched boundary scans). Reports the engine
    #: that *ran*, not the one requested — a vector-routed run whose
    #: configuration turned out not to batch reports ``"event"``.
    engine_kind: str = "event"
    #: Boundary-check instants the vector engine evaluated as array scans
    #: (its batch width for this run); 0 on the event engine.
    vector_checks: int = 0
    #: True when this run's result was cloned from a dynamics-identical
    #: sibling in the same batch instead of executed; the execution fields
    #: (wall clock, events, attempts) then report the *representative*
    #: run, exactly as ledger replays report the original execution.
    deduped: bool = False


@dataclass(frozen=True)
class BatchTelemetry:
    """Instrumentation of one executed batch."""

    runs: int
    wall_s: float
    catalog_builds: int
    catalog_cache_hits: int
    events_processed: int
    jobs: int = 1  #: worker processes requested
    parallel_runs: int = 0  #: runs executed or cloned in pool workers
    #: Always 0: workers resolve their own catalogs, nothing is shipped.
    #: Kept because the benchmark's per-layer metrics still read it.
    shm_catalogs: int = 0
    resumed: bool = False  #: batch was resumed from a run ledger
    replayed_runs: int = 0  #: runs replayed from the ledger, not executed
    engine: str = "auto"  #: the requested ``--engine`` selector
    vector_runs: int = 0  #: runs the vector engine actually batched
    #: total boundary-check instants the vector engine scanned as arrays
    vector_checks: int = 0
    deduped_runs: int = 0  #: runs cloned from dynamics-identical siblings

    def summary(self) -> str:
        """One-line human summary (the runner's footer ingredient)."""
        base = (
            f"{self.runs} runs, {self.catalog_builds} catalog builds, "
            f"{self.catalog_cache_hits} cache hits, jobs={self.jobs}"
        )
        if self.replayed_runs:
            base += f", {self.replayed_runs} replayed"
        if self.vector_runs:
            base += f", {self.vector_runs} vector ({self.vector_checks} checks)"
        if self.deduped_runs:
            base += f", {self.deduped_runs} deduped"
        return base


class TelemetryCollector:
    """Accumulates batch telemetry across several ``run_batch`` calls."""

    def __init__(self) -> None:
        self.batches: List[BatchTelemetry] = []

    def add(self, batch: BatchTelemetry) -> None:
        self.batches.append(batch)

    # ------------------------------------------------------------ aggregates
    @property
    def runs(self) -> int:
        return sum(b.runs for b in self.batches)

    @property
    def catalog_builds(self) -> int:
        return sum(b.catalog_builds for b in self.batches)

    @property
    def cache_hits(self) -> int:
        return sum(b.catalog_cache_hits for b in self.batches)

    @property
    def events_processed(self) -> int:
        return sum(b.events_processed for b in self.batches)

    @property
    def jobs(self) -> int:
        return max((b.jobs for b in self.batches), default=1)

    @property
    def replayed_runs(self) -> int:
        return sum(b.replayed_runs for b in self.batches)

    @property
    def vector_runs(self) -> int:
        return sum(b.vector_runs for b in self.batches)

    @property
    def deduped_runs(self) -> int:
        return sum(b.deduped_runs for b in self.batches)

    @property
    def wall_s(self) -> float:
        return sum(b.wall_s for b in self.batches)

    def summary(self) -> str:
        base = (
            f"{self.runs} runs, {self.catalog_builds} catalog builds, "
            f"{self.cache_hits} cache hits, jobs={self.jobs}"
        )
        if self.replayed_runs:
            base += f", {self.replayed_runs} replayed"
        if self.vector_runs:
            base += f", {self.vector_runs} vector"
        if self.deduped_runs:
            base += f", {self.deduped_runs} deduped"
        return base


_ACTIVE: contextvars.ContextVar[Tuple[TelemetryCollector, ...]] = contextvars.ContextVar(
    "repro_runtime_telemetry_collectors", default=()
)


@contextlib.contextmanager
def collect_telemetry() -> Iterator[TelemetryCollector]:
    """Collect telemetry from every batch executed inside the scope."""
    collector = TelemetryCollector()
    token = _ACTIVE.set(_ACTIVE.get() + (collector,))
    try:
        yield collector
    finally:
        _ACTIVE.reset(token)


def notify_batch(batch: BatchTelemetry) -> None:
    """Report one finished batch to every active collector (executor hook)."""
    for collector in _ACTIVE.get():
        collector.add(batch)
