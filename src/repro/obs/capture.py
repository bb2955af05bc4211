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
import dataclasses
import typing
from json.encoder import encode_basestring_ascii
from typing import (
    IO, TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence,
    Tuple, Type, Union,
)

from repro.obs.events import EVENT_TYPES, TraceEvent
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


#: A compiled line encoder: ``(event dict, encoded tags prefix)`` -> the
#: JSONL line, or ``None`` when the dict needs the generic encoder.
_LineEncoder = Callable[[Dict[str, Any], str], Optional[str]]

#: Declared field type -> (exact-type check, finiteness term, ``%`` format,
#: ``%`` argument), each a template over the field's value ``{v}``. For a
#: value of exactly that type the format writes ``JSONL_ENCODER``'s bytes.
_FIELD_CODECS: Dict[Any, Tuple[str, str, str, str]] = {
    float: ("type({v}) is float", "{v}", "%r", "{v}"),
    int: ("type({v}) is int", "", "%r", "{v}"),
    str: ("type({v}) is str", "", "%s", "_esc({v})"),
    bool: ("type({v}) is bool", "", "%s", '("true" if {v} else "false")'),
    Optional[float]: (
        "({v} is None or type({v}) is float)", "({v} or 0.0)", "%s",
        '("null" if {v} is None else repr({v}))',
    ),
}


def _literal(text: str) -> str:
    """``text`` JSON-encoded for a ``%`` template."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _compile_line_encoder(cls: Type[TraceEvent]) -> Optional[_LineEncoder]:
    """One event class's line function, generated from its dataclass
    fields and type hints (``None`` if a field's type has no codec).

    The keys and the ``"type"`` pair are pre-encoded into a ``%`` template.
    The function returns ``None``, and the line falls back to the generic
    encoder, unless the dict holds exactly the class's keys in field
    order, every value has exactly its declared type, and every float is
    finite (the floats' sum times zero is ``0.0`` only then; an overflow
    of the sum merely falls back).
    """
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    try:
        codecs = [_FIELD_CODECS[hints[name]] for name in names]
    except KeyError:
        return None
    values = [f"v{i}" for i in range(len(names))]
    checks = " and ".join(c[0].format(v=v) for c, v in zip(codecs, values))
    floats = " + ".join(c[1].format(v=v) for c, v in zip(codecs, values) if c[1])
    args = ", ".join(c[3].format(v=v) for c, v in zip(codecs, values))
    template = (
        f"%s{_literal('type')}:{_literal(cls.etype)}"
        + "".join(f",{_literal(name)}:{c[2]}" for name, c in zip(names, codecs))
        + "}\n"
    )
    source = (
        "def line(d, prefix):\n"
        "    if tuple(d) != _keys:\n"
        "        return None\n"
        f"    _, {', '.join(values)}, = d.values()\n"
        f"    if not ({checks}):\n"
        "        return None\n"
        + (f"    if ({floats}) * 0.0:\n        return None\n" if floats else "")
        + f"    return _template % (prefix, {args})\n"
    )
    namespace: Dict[str, Any] = {
        "_keys": ("type", *names), "_template": template, "_esc": encode_basestring_ascii,
    }
    exec(source, namespace)
    return namespace["line"]


class _LineEncoders(Dict[Any, Optional[_LineEncoder]]):
    """Wire name -> compiled line encoder, built on first use so importing
    ``repro.obs`` compiles nothing; an unknown wire name maps to ``None``."""

    def __missing__(self, etype: Any) -> Optional[_LineEncoder]:
        cls = EVENT_TYPES.get(etype)
        if cls is None:
            return None
        encoder = self[etype] = _compile_line_encoder(cls)
        return encoder


_LINE_ENCODERS = _LineEncoders()


def _event_keys() -> FrozenSet[str]:
    """Every key an event dict can hold: ``type`` and each field name."""
    return frozenset(["type"]).union(
        *((f.name for f in dataclasses.fields(cls)) for cls in EVENT_TYPES.values())
    )


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
        event_keys = _event_keys()
        n = 0
        for run in self.runs:
            events = run.trace_events
            if not events:
                continue
            tags: Dict[str, Any] = dict(extra_tags or {})
            tags["run"] = run.label
            tags["seed"] = run.seed
            tags["engine"] = run.engine_kind
            # Presence-based tag: omitted when False so ordinary
            # trace lines don't grow for the common case.
            if run.deduped:
                tags["deduped"] = True
            # The tags open every line: encode them once, then let each
            # event's compiled encoder append its fields. A line it
            # declines is the plain merge of tags and event.
            prefix = encode(tags)[:-1] + ","
            fast = event_keys.isdisjoint(tags)
            lines = []
            for event in events:
                encoder = _LINE_ENCODERS[event.get("type")] if fast else None
                line = encoder(event, prefix) if encoder is not None else None
                if line is None:
                    record = dict(tags)
                    record.update(event)
                    line = encode(record) + "\n"
                lines.append(line)
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
