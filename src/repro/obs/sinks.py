"""Trace sinks: where emitted events go.

The :class:`TraceSink` protocol is deliberately tiny — an ``enabled`` flag
plus ``emit`` — so instrumented hot paths can guard event *construction*
behind ``if sink.enabled:`` and pay nothing when tracing is off. The
default everywhere is the shared :data:`NULL_SINK`.

Provided sinks:

* :class:`NullSink` — disabled, drops everything (the default);
* :class:`MemorySink` — append to an in-process list (tests, capture
  across the process-pool boundary).

Trace files are written one way:
:meth:`repro.obs.ObservationScope.write_jsonl` (``--trace FILE``) writes
every line as :data:`JSONL_ENCODER` encodes it; :func:`read_jsonl` reads
them back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Protocol, Tuple, Union, runtime_checkable

from repro.obs.events import TraceEvent

__all__ = [
    "TraceSink",
    "NullSink",
    "NULL_SINK",
    "MemorySink",
    "read_jsonl",
]


@runtime_checkable
class TraceSink(Protocol):
    """What instrumented code needs from a sink."""

    #: Emission sites check this before constructing an event object, so a
    #: disabled sink costs one attribute read and a branch per site.
    enabled: bool

    def emit(self, event: TraceEvent) -> None:
        """Record one event (called only when :attr:`enabled` is true)."""
        ...


class NullSink:
    """The zero-overhead default: disabled, drops anything emitted anyway."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass


#: Shared default sink — instrumented constructors default to this.
NULL_SINK = NullSink()


class MemorySink:
    """Collect every event in an in-process list."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def to_dicts(self) -> Tuple[Dict[str, Any], ...]:
        """Every event as :meth:`TraceEvent.to_dict` output, in emission
        order: the plain dicts a run ships on ``RunTelemetry.trace_events``
        (they pickle across the process-pool boundary)."""
        return tuple(e.to_dict() for e in self.events)

    def __len__(self) -> int:
        return len(self.events)


#: The compact encoder behind every trace line: the same output as
#: ``json.dumps(record, separators=(",", ":"))``, which would build a new
#: encoder on each call.
JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"))


def read_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield the event records of a JSONL trace file (blank lines skipped)."""
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                yield json.loads(line)
