"""Run instrumentation: what each run cost, where the time went.

Every executed run yields a :class:`RunTelemetry`; every batch a
:class:`BatchTelemetry`. Callers who want cross-batch totals (the
experiment runner's and the fleet CLI's footer lines) open a
:func:`repro.obs.observe` scope, which collects each batch, and render
its batches with :func:`batches_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["RunTelemetry", "BatchTelemetry", "batches_summary"]


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
    #: Captured trace events as dicts, present only when the run executed
    #: inside an ``observe(trace=True)`` scope — dicts (not event objects)
    #: so they cross the process-pool boundary as plain picklable data.
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
        """One-line human summary: :func:`batches_summary` of this batch."""
        return batches_summary((self,))


def batches_summary(batches: Sequence[BatchTelemetry]) -> str:
    """One-line summary of several batches' totals: the footer line of
    ``repro-experiments`` and ``repro-fleet``."""
    runs = sum(b.runs for b in batches)
    builds = sum(b.catalog_builds for b in batches)
    hits = sum(b.catalog_cache_hits for b in batches)
    jobs = max((b.jobs for b in batches), default=1)
    base = f"{runs} runs, {builds} catalog builds, {hits} cache hits, jobs={jobs}"
    replayed = sum(b.replayed_runs for b in batches)
    if replayed:
        base += f", {replayed} replayed"
    vector = sum(b.vector_runs for b in batches)
    if vector:
        checks = sum(b.vector_checks for b in batches)
        base += f", {vector} vector ({checks} checks)"
    deduped = sum(b.deduped_runs for b in batches)
    if deduped:
        base += f", {deduped} deduped"
    return base
