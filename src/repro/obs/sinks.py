"""Trace sinks: where emitted events go.

The :class:`TraceSink` protocol is deliberately tiny — an ``enabled`` flag
plus ``emit`` — so instrumented hot paths can guard event *construction*
behind ``if sink.enabled:`` and pay nothing when tracing is off. The
default everywhere is the shared :data:`NULL_SINK`.

Provided sinks:

* :class:`NullSink` — disabled, drops everything (the default);
* :class:`MemorySink` — append to an in-process list (tests, capture
  across the process-pool boundary);
* :class:`RingBufferSink` — keep only the last ``capacity`` events
  (flight-recorder debugging of long runs);
* :class:`JsonlSink` — stream events as JSON lines to a file
  (``repro-simulate --trace``; read back with
  :func:`repro.obs.read_jsonl`).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Protocol, Union, runtime_checkable

from repro.obs.events import TraceEvent

__all__ = [
    "TraceSink",
    "NullSink",
    "NULL_SINK",
    "MemorySink",
    "RingBufferSink",
    "JsonlSink",
    "read_jsonl",
    "write_jsonl_line",
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

    def __len__(self) -> int:
        return len(self.events)


class RingBufferSink:
    """Keep only the most recent ``capacity`` events (a flight recorder)."""

    enabled = True

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


#: The compact encoder behind every trace line: the same output as
#: ``json.dumps(record, separators=(",", ":"))``, which would build a new
#: encoder on each call.
JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_jsonl_line(fp: IO[str], record: Dict[str, Any]) -> None:
    """Write one event record as a compact JSON line."""
    fp.write(JSONL_ENCODER.encode(record) + "\n")


class JsonlSink:
    """Stream events to a JSONL file, one compact JSON object per line.

    Usable as a context manager; ``tags`` (e.g. run label and seed) are
    merged into every line so streams from several runs can share a file.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, Path, IO[str]],
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        if hasattr(path, "write"):
            self._fp: IO[str] = path  # type: ignore[assignment]
            self._owns = False
        else:
            self._fp = open(path, "w", encoding="utf-8")
            self._owns = True
        self.tags = dict(tags or {})
        self.lines_written = 0

    def emit(self, event: TraceEvent) -> None:
        record = dict(self.tags)
        record.update(event.to_dict())
        write_jsonl_line(self._fp, record)
        self.lines_written += 1

    def close(self) -> None:
        if self._owns:
            self._fp.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield the event records of a JSONL trace file (blank lines skipped)."""
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                yield json.loads(line)
