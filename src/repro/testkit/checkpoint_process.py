"""Background checkpointing as a running simulation process: the τ-bound oracle.

:class:`~repro.vm.checkpoint.BoundedCheckpointer` gives Yank's steady-state
*arithmetic*, which is what the simulator uses; this module is the
event-driven reference that tests compare it against. It runs the actual
control loop on the event engine, under a (possibly time-varying) dirty
rate:

* dirty data accrues at the current rate, capped by the writable working set;
* when the backlog reaches the trigger level ``safety * tau * B`` a flush
  starts, draining at the write bandwidth while new dirtying accrues into
  the next increment;
* at any instant, suspending the VM costs ``backlog / B`` of final flush —
  and because the trigger never lets the backlog exceed ``tau * B``, that
  final flush always fits the bound, whatever the workload does (as long as
  its dirty rate stays below the write bandwidth).

The process records every flush, so tests can check both the invariant
(final flush <= tau at *every* instant) and the adaptive behaviour (flush
frequency tracks the dirty rate, the idle VM flushes rarely).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CheckpointBoundError, MigrationError
from repro.simulator.engine import Engine
from repro.simulator.events import EventKind
from repro.vm.memory import MemoryProfile

__all__ = ["FlushRecord", "DirtyRateProfile", "BackgroundCheckpointProcess"]


@dataclass(frozen=True)
class FlushRecord:
    """One background flush."""

    start: float
    end: float
    megabits: float


class DirtyRateProfile:
    """A piecewise-constant dirty-rate schedule (Mbit/s over time)."""

    def __init__(self, times: Sequence[float], rates: Sequence[float]) -> None:
        t = np.asarray(times, dtype=float)
        r = np.asarray(rates, dtype=float)
        if t.ndim != 1 or t.shape != r.shape or t.size == 0:
            raise MigrationError("profile needs matching 1-D times/rates")
        if np.any(np.diff(t) <= 0):
            raise MigrationError("profile times must be strictly increasing")
        if np.any(r < 0):
            raise MigrationError("dirty rates must be >= 0")
        self.times = t
        self.rates = r

    @classmethod
    def constant(cls, rate: float) -> "DirtyRateProfile":
        return cls([0.0], [rate])

    def rate_at(self, t: float) -> float:
        idx = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0,
                          len(self.times) - 1))
        return float(self.rates[idx])

    def next_change_after(self, t: float) -> Optional[float]:
        idx = int(np.searchsorted(self.times, t, side="right"))
        if idx >= len(self.times):
            return None
        return float(self.times[idx])

    @property
    def max_rate(self) -> float:
        return float(self.rates.max())


class BackgroundCheckpointProcess:
    """Runs Yank's background flush loop on an engine.

    Parameters
    ----------
    engine:
        The simulation engine (shared with whatever else is running).
    memory:
        VM memory; its ``working_set_frac`` caps the backlog.
    write_bandwidth_mbps / tau_s:
        As in :class:`~repro.vm.checkpoint.BoundedCheckpointer`.
    safety:
        Trigger level as a fraction of the bound's backlog budget
        (flush at ``safety * tau * B``); < 1 leaves margin for the
        scheduling quantum.
    profile:
        Dirty-rate schedule; defaults to the memory profile's constant rate.
    """

    def __init__(
        self,
        engine: Engine,
        memory: MemoryProfile,
        write_bandwidth_mbps: float = 300.0,
        tau_s: float = 10.0,
        safety: float = 0.9,
        profile: Optional[DirtyRateProfile] = None,
    ) -> None:
        if write_bandwidth_mbps <= 0 or tau_s <= 0:
            raise MigrationError("bandwidth and tau must be positive")
        if not 0 < safety <= 1:
            raise MigrationError("safety must be in (0, 1]")
        self.engine = engine
        self.memory = memory
        self.bandwidth = float(write_bandwidth_mbps)
        self.tau_s = float(tau_s)
        self.safety = float(safety)
        self.profile = profile or DirtyRateProfile.constant(memory.dirty_rate_mbps)
        if self.profile.max_rate >= self.bandwidth:
            raise CheckpointBoundError(
                f"peak dirty rate {self.profile.max_rate} >= write bandwidth "
                f"{self.bandwidth}: the flush loop can never keep up"
            )
        self.flushes: List[FlushRecord] = []
        self._start_time = engine.now
        self._pending = None
        self._started = False

    # ----------------------------------------------------------------- state
    @property
    def trigger_megabits(self) -> float:
        """Backlog level at which a flush starts."""
        budget = self.safety * self.tau_s * self.bandwidth
        return min(budget, self.memory.working_set_megabits)

    def _last_anchor(self, t: float) -> float:
        """Most recent instant (<= t) at which the new-dirty backlog was 0:
        the process start, or the start of the latest flush (whose data is
        then in flight, accounted separately)."""
        anchor = self._start_time
        for f in self.flushes:
            if f.start <= t:
                anchor = f.start
            else:
                break
        return anchor

    def backlog_at(self, t: float) -> float:
        """Un-flushed *new* dirty data at any time ``t`` since the start."""
        if t < self._start_time:
            raise MigrationError("cannot query before the process started")
        anchor = self._last_anchor(t)
        backlog = 0.0
        cur = anchor
        while cur < t:
            rate = self.profile.rate_at(cur)
            nxt = self.profile.next_change_after(cur)
            seg_end = min(t, nxt if nxt is not None else t)
            backlog += rate * (seg_end - cur)
            cur = seg_end
        return min(backlog, self.memory.working_set_megabits)

    def inflight_s(self, t: float) -> float:
        """Remaining drain time of a flush in progress at ``t`` (0 if none)."""
        for f in reversed(self.flushes):
            if f.start <= t < f.end:
                return f.end - t
            if f.end <= t:
                break
        return 0.0

    def final_flush_s_if_suspended(self, t: float) -> float:
        """Final-increment flush time if the VM suspended at ``t``.

        A suspend must finish any in-flight flush and then write the new
        backlog; because the trigger caps the pre-flush backlog, this total
        never exceeds the bound.
        """
        return self.inflight_s(t) + self.backlog_at(t) / self.bandwidth

    def bound_holds_at(self, t: float) -> bool:
        return self.final_flush_s_if_suspended(t) <= self.tau_s + 1e-9

    # ------------------------------------------------------------------ loop
    def start(self) -> None:
        if self._started:
            raise MigrationError("checkpoint process already started")
        self._started = True
        self._start_time = self.engine.now
        self._schedule_next()

    def _time_to_trigger(self, now: float) -> Optional[float]:
        """When will the backlog next reach the trigger (None = never)?"""
        target = self.trigger_megabits
        backlog = self.backlog_at(now)
        if backlog >= target:
            return now
        cur = now
        acc = backlog
        while True:
            rate = self.profile.rate_at(cur)
            nxt = self.profile.next_change_after(cur)
            if rate > 0:
                eta = cur + (target - acc) / rate
                if nxt is None or eta <= nxt:
                    return eta
                acc += rate * (nxt - cur)
                cur = nxt
            else:
                if nxt is None:
                    return None
                cur = nxt

    def _schedule_next(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        eta = self._time_to_trigger(self.engine.now)
        if eta is None:
            return
        self._pending = self.engine.schedule(
            max(eta, self.engine.now),
            lambda _e, _ev: self._begin_flush(),
            kind=EventKind.TIMER,
            label="ckpt-flush",
        )

    def _begin_flush(self) -> None:
        now = self.engine.now
        backlog = self.backlog_at(now)
        if backlog <= 0:
            self._schedule_next()
            return
        duration = backlog / self.bandwidth
        # new dirtying during the flush belongs to the *next* increment
        self.flushes.append(FlushRecord(start=now, end=now + duration, megabits=backlog))
        self._pending = self.engine.schedule(
            now + duration,
            lambda _e, _ev: self._end_flush(),
            kind=EventKind.TIMER,
            label="ckpt-flush-done",
        )

    def _end_flush(self) -> None:
        self._schedule_next()

    # ------------------------------------------------------------- reporting
    def flush_count(self) -> int:
        return len(self.flushes)

    def mean_period_s(self) -> float:
        """Mean spacing of flush starts (nan with fewer than two flushes)."""
        if len(self.flushes) < 2:
            return float("nan")
        starts = np.array([f.start for f in self.flushes])
        return float(np.diff(starts).mean())

    def bandwidth_fraction_used(self, t0: float, t1: float) -> float:
        """Share of [t0, t1) spent flushing."""
        if t1 <= t0:
            raise MigrationError("empty window")
        busy = sum(
            max(0.0, min(f.end, t1) - max(f.start, t0)) for f in self.flushes
        )
        return busy / (t1 - t0)
