"""Generator-based processes on top of the event engine.

A :class:`Process` wraps a Python generator that ``yield``s command objects:

* ``Timeout(dt)`` — sleep ``dt`` simulated seconds;
* ``SleepUntil(t)`` — park until the absolute simulation instant ``t``;
* ``WaitEvent(trigger)`` — park until another process calls
  ``trigger.succeed(value)``; the value is sent back into the generator.

Processes can be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupt` inside the generator at its current suspension point —
exactly how the cloud scheduler models a revocation warning cutting short a
planned activity.

This is a deliberately small subset of SimPy-style semantics; the cloud
scheduler's state machine only needs sleep, signal, and interrupt.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.simulator.engine import Engine, EventHandle
from repro.simulator.events import EventKind

__all__ = ["Timeout", "SleepUntil", "WaitEvent", "Interrupt", "Process"]


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class SleepUntil:
    """Yielded by a process to park until the absolute instant ``at``.

    Unlike ``Timeout(at - now)``, the wake-up lands at *exactly* ``at``
    (no ``now + delay`` rounding), which the vectorized batch engine
    relies on to land on the same float instants the per-event engine
    reaches by chaining relative timeouts.
    """

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = float(at)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SleepUntil({self.at})"


class WaitEvent:
    """A one-shot signal another process can trigger with a value.

    A process yields the instance to park; any other code calls
    :meth:`succeed` to wake it. Triggering before anyone waits is allowed
    (the value is latched).
    """

    __slots__ = ("_engine", "_value", "_done", "_waiters")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._value: Any = None
        self._done = False
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the signal, waking every waiter at the current sim time."""
        if self._done:
            raise SimulationError("WaitEvent already triggered")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            # Wake via a zero-delay event so ordering stays deterministic and
            # we never re-enter a generator from inside another's frame.
            self._engine.schedule_after(
                0.0,
                lambda _e, _ev, w=wake: w(value),
                kind=EventKind.PROCESS_RESUME,
                label="waitevent-wake",
            )

    def _add_waiter(self, wake: Callable[[Any], None]) -> None:
        if self._done:
            self._engine.schedule_after(
                0.0,
                lambda _e, _ev: wake(self._value),
                kind=EventKind.PROCESS_RESUME,
                label="waitevent-latched",
            )
        else:
            self._waiters.append(wake)


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted."""

    def __init__(self, cause: Any = None) -> None:
        self.cause = cause
        super().__init__(f"process interrupted (cause={cause!r})")


class Process:
    """Drives a generator as a simulation process.

    Parameters
    ----------
    engine:
        The engine supplying the clock and event queue.
    generator:
        A generator yielding :class:`Timeout` / :class:`WaitEvent` commands.
    label:
        Name used in tracing and error messages.
    """

    def __init__(
        self,
        engine: Engine,
        generator: Generator[Any, Any, Any],
        label: str = "process",
    ) -> None:
        self.engine = engine
        self.generator = generator
        self.label = label
        self.alive = True
        self.result: Any = None
        self._pending_handle: Optional[EventHandle] = None
        self._waiting_on: Optional[WaitEvent] = None
        self.completion = WaitEvent(engine)
        # Built once: a scheduler process sleeps on a Timeout at every
        # boundary visit, so its wake-up callback and label are reused.
        self._wake = lambda _e, _ev: self._advance(None)
        self._timeout_label = f"{label}-timeout"
        # Start the generator at the current simulation instant (via a
        # zero-delay event so construction order doesn't matter).
        engine.schedule_after(
            0.0,
            lambda _e, _ev: self._advance(None),
            kind=EventKind.PROCESS_RESUME,
            label=f"{label}-start",
        )

    # ------------------------------------------------------------------ drive
    def _advance(self, send_value: Any, exc: Optional[BaseException] = None) -> None:
        if not self.alive:
            return
        self._pending_handle = None
        self._waiting_on = None
        try:
            if exc is not None:
                command = self.generator.throw(exc)
            else:
                command = self.generator.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self.completion.succeed(stop.value)
            return
        except Interrupt:
            # Generator chose not to handle the interrupt: terminate quietly.
            self.alive = False
            self.completion.succeed(None)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Timeout):
            self._pending_handle = self.engine.schedule_after(
                command.delay, self._wake, kind=EventKind.TIMER, label=self._timeout_label
            )
        elif isinstance(command, SleepUntil):
            at = command.at
            if at < self.engine.now:
                raise SimulationError(
                    f"process {self.label!r} slept until t={at:.6f}, "
                    f"before now={self.engine.now:.6f}"
                )
            self._pending_handle = self.engine.schedule(
                at,
                self._wake,
                kind=EventKind.TIMER,
                label=f"{self.label}-sleep-until",
            )
        elif isinstance(command, WaitEvent):
            self._waiting_on = command
            command._add_waiter(lambda value: self._advance(value))
        else:
            raise SimulationError(
                f"process {self.label!r} yielded unsupported command {command!r}"
            )

    # -------------------------------------------------------------- interrupt
    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the generator at its next chance.

        A process parked on a Timeout has the timer cancelled; one parked on
        a WaitEvent is detached from it. Interrupting a dead process is a
        no-op.
        """
        if not self.alive:
            return
        if self._pending_handle is not None:
            self._pending_handle.cancel()
            self._pending_handle = None
        self._waiting_on = None
        self.engine.schedule_after(
            0.0,
            lambda _e, _ev: self._advance(None, exc=Interrupt(cause)),
            kind=EventKind.PROCESS_RESUME,
            priority=-1,  # interrupts beat ordinary wakeups at the same instant
            label=f"{self.label}-interrupt",
        )

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.label!r} {state}>"
