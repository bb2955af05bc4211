"""In-memory span tracing around the public callables of each layer.

A :class:`Tracer` replaces a function at the place its callers look it up
(a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and an optional tag. Spans
stay in memory; :func:`layer_self_times` and the per-layer metric builder
in ``workloads.py`` read them after the timed phase. :meth:`Tracer.restore`
puts every original callable back.

A layer's self time is the duration of its spans minus the part of each
span covered by its child spans. Calls are single-threaded and properly
nested, so the covered part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Patches", "Span", "Tracer", "layer_of", "layer_self_times", "self_times"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  #: index of the enclosing span, -1 for a root
    tag: Any = None


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


class Patches:
    """Attribute replacements that can all be undone with :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans for the callables it wraps, until :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._patches = Patches()

    def span(self, name: str, fn: Callable, tag: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records a span called ``name``.

        ``tag(args, result)``, when given, computes the span's tag from the
        call's positional arguments and its return value.
        """
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = Span(name, clock(), 0.0, open_[-1] if open_ else -1)
            spans.append(record)
            open_.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record.end = clock()
                open_.pop()
                if tag is not None:
                    record.tag = tag(args, result)

        return traced

    def patch(
        self, owner: Any, attr: str, name: str, tag: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.attr`` by its traced wrapper.

        A callable the program no longer has is skipped with a warning, so
        its metrics read 0 instead of the traced run failing.
        """
        if not hasattr(owner, attr):
            print(f"perfbench: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  f"span {name} not recorded", file=sys.stderr)
            return
        self._patches.replace(owner, attr, lambda fn: self.span(name, fn, tag))

    def restore(self) -> None:
        """Put every patched callable back."""
        self._patches.restore()


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per layer (see :func:`layer_of`)."""
    totals: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = layer_of(s.name)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
