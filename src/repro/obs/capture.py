"""Observation scopes: collect traces, metrics and telemetry across batches.

The experiment drivers never see sinks — they submit
:class:`~repro.core.simulation.RunSpec` batches. An :func:`observe` scope
bridges the gap: while a scope with ``trace=True`` is active,
:func:`repro.runtime.run_batch` runs every pending run in capture mode
(workers record into a :class:`~repro.obs.sinks.MemorySink` and ship the
events back inside their run telemetry), and reports each finished batch
here **in submission order** — which is what makes the JSONL stream
byte-identical at any ``--jobs`` value.

A scope accumulates each run's
:class:`~repro.runtime.telemetry.RunTelemetry` (label, seed, captured
event dicts, metrics snapshot, engine, clone provenance), each batch's
:class:`~repro.runtime.telemetry.BatchTelemetry`, and one merged
:class:`~repro.obs.metrics.MetricsRegistry` across all runs.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import (
    IO, TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JSONL_ENCODER

if TYPE_CHECKING:
    from repro.runtime.telemetry import BatchTelemetry, RunTelemetry

__all__ = [
    "ObservationScope",
    "observe",
    "trace_capture_active",
    "notify_batch",
]


class ObservationScope:
    """Accumulates run and batch telemetry while active (see :func:`observe`)."""

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.runs: List[RunTelemetry] = []
        self.batches: List[BatchTelemetry] = []
        self.metrics = MetricsRegistry()

    # -------------------------------------------------------------- ingestion
    def add_run(self, run: RunTelemetry) -> None:
        """Record one finished run (called in submission order)."""
        self.runs.append(run)
        if run.metrics:
            self.metrics.merge(MetricsRegistry.from_dict(run.metrics))

    # --------------------------------------------------------------- queries
    @property
    def event_count(self) -> int:
        return sum(len(r.trace_events or ()) for r in self.runs)

    # ----------------------------------------------------------------- output
    def write_jsonl(
        self,
        target: Union[str, IO[str]],
        extra_tags: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Write every captured event as JSONL; returns the line count.

        Each line is the run's tags (the extra tags, then run label, seed,
        engine and, for a clone, ``deduped``) updated with one event's
        fields, compact-encoded. Each run's lines go out in one write.
        """
        if hasattr(target, "write"):
            return self._write_lines(target, extra_tags)  # type: ignore[arg-type]
        with open(target, "w", encoding="utf-8") as fp:
            return self._write_lines(fp, extra_tags)

    def _write_lines(self, fp: IO[str], extra_tags: Optional[Dict[str, Any]]) -> int:
        encode = JSONL_ENCODER.encode
        n = 0
        for run in self.runs:
            tags: Dict[str, Any] = dict(extra_tags or {})
            tags["run"] = run.label
            tags["seed"] = run.seed
            tags["engine"] = run.engine_kind
            # Presence-based tag: omitted when False so ordinary
            # trace lines don't grow for the common case.
            if run.deduped:
                tags["deduped"] = True
            lines = []
            for event in run.trace_events or ():
                record = dict(tags)
                record.update(event)
                lines.append(encode(record) + "\n")
            fp.write("".join(lines))
            n += len(lines)
        return n

    def metrics_summary(self) -> str:
        return self.metrics.summary()


_ACTIVE: contextvars.ContextVar[Tuple[ObservationScope, ...]] = contextvars.ContextVar(
    "repro_obs_scopes", default=()
)


@contextlib.contextmanager
def observe(trace: bool = False) -> Iterator[ObservationScope]:
    """Activate an :class:`ObservationScope` for the duration of the block.

    Every :func:`repro.runtime.run_batch` executed inside reports its runs
    and its batch telemetry here; ``trace=True`` additionally runs them
    in event-capture mode.
    """
    scope = ObservationScope(trace=trace)
    token = _ACTIVE.set(_ACTIVE.get() + (scope,))
    try:
        yield scope
    finally:
        _ACTIVE.reset(token)


def trace_capture_active() -> bool:
    """Should runs capture trace events right now?"""
    return any(scope.trace for scope in _ACTIVE.get())


def notify_batch(run_telemetry: Sequence[RunTelemetry], batch: BatchTelemetry) -> None:
    """Report one finished batch — its runs in submission order, then its
    batch telemetry — to every active scope (executor hook)."""
    for scope in _ACTIVE.get():
        for run in run_telemetry:
            scope.add_run(run)
        scope.batches.append(batch)
