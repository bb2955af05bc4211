"""Observation scopes: collect traces and metrics across batch boundaries.

The experiment drivers never see sinks — they submit
:class:`~repro.core.simulation.RunSpec` batches. An :func:`observe` scope
bridges the gap the same way :func:`repro.runtime.collect_telemetry` does:
while a scope with ``trace=True`` is active, :func:`repro.runtime.run_batch`
switches every spec to capture mode (workers record into a
:class:`~repro.obs.sinks.MemorySink` and ship the events back inside their
run telemetry), and reports each finished batch here **in submission
order** — which is what makes the JSONL stream byte-identical at any
``--jobs`` value.

A scope accumulates, per run: the label, the seed, the captured event
dicts, and the run's metrics snapshot; plus one merged
:class:`~repro.obs.metrics.MetricsRegistry` across all runs.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JSONL_ENCODER

__all__ = [
    "RunObservation",
    "ObservationScope",
    "observe",
    "active_scopes",
    "trace_capture_active",
    "notify_run",
]


@dataclass(frozen=True)
class RunObservation:
    """What one executed run reported back."""

    label: str
    seed: int
    events: Tuple[Dict[str, Any], ...] = ()
    metrics: Optional[Dict[str, Any]] = None
    #: Which engine executed the run (``RunTelemetry.engine_kind``).
    engine: str = "event"
    #: The run was cloned from a dynamics-identical sibling
    #: (``RunTelemetry.deduped``).
    deduped: bool = False


class ObservationScope:
    """Accumulates run observations while active (see :func:`observe`)."""

    def __init__(self, trace: bool = False, metrics: bool = False) -> None:
        self.trace = trace
        self.metrics_enabled = metrics
        self.runs: List[RunObservation] = []
        self.metrics = MetricsRegistry()

    # -------------------------------------------------------------- ingestion
    def add_run(
        self,
        label: str,
        seed: int,
        events: Optional[Tuple[Dict[str, Any], ...]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        engine: str = "event",
        deduped: bool = False,
    ) -> None:
        """Record one finished run (called in submission order)."""
        self.runs.append(
            RunObservation(
                label=label, seed=seed, events=tuple(events or ()),
                metrics=metrics, engine=engine, deduped=deduped,
            )
        )
        if metrics:
            self.metrics.merge(MetricsRegistry.from_dict(metrics))

    # --------------------------------------------------------------- queries
    @property
    def event_count(self) -> int:
        return sum(len(r.events) for r in self.runs)

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
            tags["engine"] = run.engine
            # Presence-based tag: omitted when False so ordinary
            # trace lines don't grow for the common case.
            if run.deduped:
                tags["deduped"] = True
            lines = []
            for event in run.events:
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
def observe(trace: bool = False, metrics: bool = False) -> Iterator[ObservationScope]:
    """Activate an :class:`ObservationScope` for the duration of the block.

    Every :func:`repro.runtime.run_batch` executed inside reports its runs
    here; ``trace=True`` additionally switches those runs to event capture.
    """
    scope = ObservationScope(trace=trace, metrics=metrics)
    token = _ACTIVE.set(_ACTIVE.get() + (scope,))
    try:
        yield scope
    finally:
        _ACTIVE.reset(token)


def active_scopes() -> Tuple[ObservationScope, ...]:
    """The currently active scopes, innermost last."""
    return _ACTIVE.get()


def trace_capture_active() -> bool:
    """Should runs capture trace events right now?"""
    return any(scope.trace for scope in _ACTIVE.get())


def notify_run(
    label: str,
    seed: int,
    events: Optional[Tuple[Dict[str, Any], ...]],
    metrics: Optional[Dict[str, Any]],
    engine: str = "event",
    deduped: bool = False,
) -> None:
    """Report one finished run to every active scope (executor hook)."""
    for scope in _ACTIVE.get():
        scope.add_run(
            label, seed, events=events, metrics=metrics, engine=engine,
            deduped=deduped,
        )
