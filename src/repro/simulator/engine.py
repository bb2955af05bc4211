"""The discrete-event simulation engine.

A classic calendar-queue loop: events are pushed onto a binary heap keyed by
``(time, priority, seq)`` and popped in order; the clock jumps from event to
event. The engine is deliberately small — all domain behaviour lives in the
callbacks that the cloud/market/scheduler layers register.

Design notes (following the HPC-Python guides):

* the hot loop avoids per-event object churn beyond the heap tuple itself;
* determinism is absolute: same seed + same schedule order => same run, which
  the property-based tests in ``tests/simulator`` rely on;
* cancellation is O(1) via tombstoning rather than O(n) heap surgery.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.events import EngineRunCompleted
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.simulator.events import Event, EventKind

__all__ = ["Engine", "EventHandle"]


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation tombstones the event; the engine skips tombstoned entries
    when they surface at the top of the heap.
    """

    __slots__ = ("event", "cancelled")

    def __init__(self, event: Event) -> None:
        self.event = event
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        self.cancelled = True

    @property
    def time(self) -> float:
        return self.event.time

    def __repr__(self) -> str:  # pragma: no cover
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle {self.event!r} {state}>"


class Engine:
    """Priority-queue discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0).
    trace:
        When true, every fired event is appended to :attr:`fired_log`
        (useful in tests; costs memory on long runs).
    sink:
        A :class:`repro.obs.TraceSink` receiving one
        :class:`~repro.obs.EngineRunCompleted` per :meth:`run` call. The
        default null sink makes this free.
    """

    def __init__(
        self, start_time: float = 0.0, trace: bool = False, sink: TraceSink = NULL_SINK
    ) -> None:
        self._now = float(start_time)
        self._seq = 0
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._running = False
        self._stopped = False
        self.trace = trace
        self.sink = sink
        self.fired_log: list[Event] = []
        self.fired_count = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -------------------------------------------------------------- scheduling
    def schedule(
        self,
        time: float,
        callback: Callable[["Engine", Event], None],
        *,
        priority: int = 0,
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(engine, event)`` at absolute time ``time``.

        Raises
        ------
        SimulationError
            If ``time`` is in the past (strictly before :attr:`now`).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        return self._push(float(time), priority, kind, callback, payload, label)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[["Engine", Event], None],
        *,
        priority: int = 0,
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
        label: str = "",
    ) -> EventHandle:
        """Schedule relative to the current clock (``delay`` seconds ahead)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # A non-negative delay never lands before now: no past-time check.
        return self._push(float(self._now + delay), priority, kind, callback, payload, label)

    def _push(
        self,
        time: float,
        priority: int,
        kind: EventKind,
        callback: Callable[["Engine", Event], None],
        payload: Any,
        label: str,
    ) -> EventHandle:
        """Queue one event under the next insertion ``seq``."""
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(Event(time, priority, seq, kind, callback, payload, label))
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    # ---------------------------------------------------------------- running
    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        self._drop_tombstones()
        return self._heap[0][0] if self._heap else None

    def _drop_tombstones(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)

    def step(self) -> Optional[Event]:
        """Fire the single next event; return it, or ``None`` if queue empty."""
        self._drop_tombstones()
        if not self._heap:
            return None
        _, _, _, handle = heapq.heappop(self._heap)
        ev = handle.event
        if ev.time < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event time moved backwards")
        self._now = ev.time
        self.fired_count += 1
        if self.trace:
            self.fired_log.append(ev)
        if ev.callback is not None:
            ev.callback(self, ev)
        return ev

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, the clock passes ``until``, or
        ``max_events`` have fired. Returns the number of events fired.

        When ``until`` is given the clock is advanced to exactly ``until`` on
        return (even if the last event was earlier), so repeated bounded runs
        compose: ``run(until=a); run(until=b)``.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        fired = 0
        # Hot loop: heap/pop/trace-log bound to locals and the peek/step pair
        # inlined — cancelled events are skipped in one tombstone sweep and
        # each live event costs exactly one pop, with no re-peek and no
        # per-event method dispatch. ``self._stopped`` must be re-read through
        # self because callbacks call stop().
        heap = self._heap
        pop = heapq.heappop
        trace = self.trace
        fired_log = self.fired_log
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                while heap and heap[0][3].cancelled:
                    pop(heap)
                if not heap:
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    break
                handle = pop(heap)[3]
                ev = handle.event
                self._now = t
                self.fired_count += 1
                if trace:
                    fired_log.append(ev)
                cb = ev.callback
                if cb is not None:
                    cb(self, ev)
                fired += 1
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        if self.sink.enabled:
            self.sink.emit(EngineRunCompleted(t=self._now, fired_events=self.fired_count))
        return fired

    def stop(self) -> None:
        """Stop a run in progress after the current event's callback returns."""
        self._stopped = True

    # -------------------------------------------------------------- utilities
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for *_rest, h in self._heap if not h.cancelled)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Engine t={self._now:.3f} pending={self.pending_count()} fired={self.fired_count}>"
