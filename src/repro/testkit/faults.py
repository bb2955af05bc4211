"""Fault injection: scripted and seeded hostile-market schedules.

A :class:`FaultPlan` describes a reproducible set of faults to inject into
one simulation run:

* **price spikes / revocation storms** — windows during which a market's
  price is raised to a multiple of its on-demand price. A factor above the
  4x bid cap guarantees every legal bid is revoked, which is how a
  "revocation storm" is expressed. Spikes may hit one market, a subset, or
  (``markets=None``) every market at once — the correlated multi-market
  case that defeats spot-to-spot escapes;
* **checkpoint-write faults** — each checkpoint write to the service
  volume may be delayed and/or transiently fail (and be retried), driven
  by a per-run seeded RNG;
* **stretched disk copies and startups** — multiplicative factors on
  cross-region disk-copy times and on sampled allocation latencies;
* **worker-process crashes** — run seeds whose first execution attempts
  raise inside :mod:`repro.runtime.executor`, exercising its
  retry/backoff path.

Separately, :func:`kill_orchestrator_after_n_runs` builds an
*orchestrator-death* fault: a ``run_batch`` progress hook that SIGKILLs
the batch parent after ``n`` completed runs, exercising the run ledger's
crash/resume path end-to-end (see :mod:`repro.runtime.ledger`);
:func:`run_kill_drill` runs that drill and reaps the workers it orphans.

Everything in a plan is deterministic given ``(plan, run seed)``: spike
schedules derive from ``FaultPlan.seed``, checkpoint faults from a stream
keyed on ``(plan seed, run seed)``. Plans are frozen, hashable and
pickleable, so they ride a :class:`~repro.core.simulation.RunSpec` across the
process-pool boundary — a faulted batch is byte-identical at any
``--jobs`` value.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.catalog import TraceCatalog
from repro.traces.trace import PriceTrace

__all__ = [
    "PriceSpike",
    "FaultPlan",
    "FaultStats",
    "kill_orchestrator_after_n_runs",
    "run_kill_drill",
]

#: Seed-stream tags keeping fault RNG independent of simulation streams.
_STORM_STREAM = 0x5707B10
_CKPT_STREAM = 0xC4EC4B0


@dataclass(frozen=True)
class PriceSpike:
    """One price excursion: the market price is raised to
    ``factor * on_demand_price`` over ``[start_s, start_s + duration_s)``.

    ``markets`` restricts the spike to the named ``"region/size"`` markets;
    ``None`` hits every market in the catalog simultaneously (a correlated
    spike). The overlay never *lowers* a price: the effective price is the
    max of the base trace and the spike level.
    """

    start_s: float
    duration_s: float
    factor: float = 5.0
    markets: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError(f"spike start must be >= 0, got {self.start_s}")
        if self.duration_s <= 0:
            raise ConfigurationError(f"spike duration must be > 0, got {self.duration_s}")
        if self.factor <= 0:
            raise ConfigurationError(f"spike factor must be > 0, got {self.factor}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def hits(self, market: str) -> bool:
        """Does this spike apply to the given ``"region/size"`` market?"""
        return self.markets is None or market in self.markets


@dataclass
class FaultStats:
    """Mutable tally of faults actually injected during one run."""

    checkpoint_writes: int = 0
    checkpoint_delayed: int = 0
    checkpoint_failures: int = 0  #: transient failures (each retried)
    checkpoint_delay_total_s: float = 0.0


def kill_orchestrator_after_n_runs(
    n: int, *, sig: int = signal.SIGKILL
) -> Callable[[object], None]:
    """An orchestrator-death fault: SIGKILL the *batch parent* mid-flight.

    Returns a :func:`repro.runtime.run_batch` ``progress`` hook that kills
    the current process the moment the ``n``-th run completes. Because the
    executor commits a run's ledger group (the executed run and its
    clones) *before* reporting progress for any of them, a batch killed
    this way has at least ``n`` intact run records: the rest of the
    ``n``-th run's group is journaled too — resuming it with
    ``run_batch(..., ledger=..., resume=True)`` must replay those runs and
    re-execute only the remainder, byte-identically. Unlike
    :attr:`FaultPlan.crash_seeds` (worker deaths the executor retries
    in-line), this fault is unsurvivable by design: it exercises the
    recovery path end-to-end and is the testkit's SIGKILL stand-in for an
    OOM-killed or Ctrl-C'd orchestrator.

    Run it in a sacrificial subprocess — the default signal is SIGKILL and
    the process hosting the batch dies.
    """
    if n < 1:
        raise ConfigurationError(f"kill threshold must be >= 1, got {n}")
    completed = [0]

    def hook(telemetry: object) -> None:
        completed[0] += 1
        if completed[0] >= n:
            os.kill(os.getpid(), sig)

    return hook


def _running_in_group(pgid: int) -> List[int]:
    """PIDs of process group ``pgid`` that have not exited. Zombies have:
    an orphan's new parent may never reap it. Reads ``/proc`` (Linux)."""
    live = []
    for stat_path in Path("/proc").glob("[0-9]*/stat"):
        try:
            stat = stat_path.read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, pgrp.
        state, _, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            live.append(int(stat_path.parent.name))
    return live


#: The drill's orchestrator: journal the batch a ``module:function``
#: factory returns, under a hook that SIGKILLs it after ``kill_after`` runs.
_DRILL_SCRIPT = """\
import importlib, sys
from repro.runtime import run_batch
from repro.testkit.faults import kill_orchestrator_after_n_runs
factory, ledger, jobs, kill_after = sys.argv[1:]
module, _, name = factory.partition(":")
specs = getattr(importlib.import_module(module), name)()
hook = kill_orchestrator_after_n_runs(int(kill_after))
run_batch(specs, jobs=int(jobs), ledger=ledger, progress=hook)
raise SystemExit(99)  # unreachable: the hook SIGKILLs the process first
"""


def run_kill_drill(
    specs: str,
    ledger,
    *,
    jobs: int,
    kill_after: int,
    env: Optional[Mapping[str, str]] = None,
    stderr=subprocess.DEVNULL,
    timeout: float = 300.0,
) -> int:
    """Journal a batch to ``ledger`` in an orchestrator that SIGKILLs itself
    after ``kill_after`` runs, then reap what it leaves behind.

    ``specs`` names a function returning the batch as ``"module:function"``,
    importable on ``env``'s ``PYTHONPATH``. The orchestrator's pool workers
    outlive its SIGKILL, blocked forever on their call queue, so it runs in
    its own session and its whole process group is SIGKILLed once it exits.
    Returns its exit status; raises :class:`RuntimeError` if a process of
    the group still runs ten seconds later. Pass ``stderr`` a file, not a
    pipe: an orphaned worker would hold a pipe open.
    """
    argv = [sys.executable, "-c", _DRILL_SCRIPT, specs, str(ledger), str(jobs), str(kill_after)]
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True
    )
    try:
        return proc.wait(timeout=timeout)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10.0
        while live := _running_in_group(proc.pid):
            if time.monotonic() > deadline:
                raise RuntimeError(f"kill drill left processes {live} of group {proc.pid}")
            time.sleep(0.01)


class _StretchedStartup:
    """Startup sampler decorator multiplying every sampled latency."""

    def __init__(self, inner, factor: float) -> None:
        self._inner = inner
        self.factor = float(factor)

    def sample(self, mode: str, zone: str) -> float:
        return self.factor * float(self._inner.sample(mode, zone))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _FaultyVolumeStore:
    """Volume-store decorator injecting checkpoint-write delays/failures.

    A transient failure is modelled as an immediate retry that costs one
    extra ``delay_s``; the write always lands eventually (the scheduler's
    availability argument assumes durable volumes), but its recorded time
    slips, and the injected faults are tallied in :class:`FaultStats`.
    """

    def __init__(
        self,
        inner,
        *,
        delay_s: float,
        failure_rate: float,
        rng: np.random.Generator,
        stats: FaultStats,
        max_retries: int = 3,
    ) -> None:
        self._inner = inner
        self.delay_s = float(delay_s)
        self.failure_rate = float(failure_rate)
        self.rng = rng
        self.stats = stats
        self.max_retries = int(max_retries)

    def write(self, volume_id: str, name: str, size_gib: float, at: float) -> None:
        delay = 0.0
        if name == "checkpoint":
            self.stats.checkpoint_writes += 1
            retries = 0
            while (
                self.failure_rate > 0.0
                and retries < self.max_retries
                and float(self.rng.random()) < self.failure_rate
            ):
                retries += 1
            if retries:
                self.stats.checkpoint_failures += retries
            delay = self.delay_s * (1 + retries)
            if delay > 0.0:
                self.stats.checkpoint_delayed += 1
                self.stats.checkpoint_delay_total_s += delay
        self._inner.write(volume_id, name, size_gib, at + delay)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _overlay(trace: PriceTrace, windows: list) -> PriceTrace:
    """Raise a trace to each window's floor price over its span.

    ``windows`` is a list of ``(start, end, floor_price)``; the result is a
    well-formed step function (strictly increasing times, compressed equal
    runs) with the same horizon.
    """
    if not windows:
        return trace
    bounds = {float(t) for t in trace.times}
    for s, e, _ in windows:
        for t in (s, e):
            if trace.start < t < trace.horizon:
                bounds.add(float(t))
    times = sorted(bounds)
    prices = []
    for t in times:
        p = float(trace.price_at(t))
        for s, e, floor in windows:
            if s <= t < e:
                p = max(p, floor)
        prices.append(p)
    ct, cp = [times[0]], [prices[0]]
    for t, p in zip(times[1:], prices[1:]):
        if p != cp[-1]:
            ct.append(t)
            cp.append(p)
    return PriceTrace(ct, cp, trace.horizon, market=trace.market, region=trace.region)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule for one simulation run.

    Attach a plan via ``RunSpec(..., faults=plan)``; the stack builder
    overlays the spikes
    onto the trace catalog and wraps the provider before the scheduler
    ever sees either. All fields have inert defaults — an empty plan is a
    no-op.
    """

    #: Seed for the plan's own randomness (storm schedules, checkpoint
    #: fault draws). Scripted plans may leave it unset.
    seed: Optional[int] = None
    spikes: Tuple[PriceSpike, ...] = ()
    #: Extra seconds added to each checkpoint write's recorded time.
    checkpoint_delay_s: float = 0.0
    #: Per-write probability of a transient checkpoint-write failure;
    #: each failure costs one extra ``checkpoint_delay_s``.
    checkpoint_failure_rate: float = 0.0
    #: Multiplier on cross-region disk-copy times (> 1 stretches blackouts).
    disk_copy_factor: float = 1.0
    #: Multiplier on sampled server-allocation latencies.
    startup_factor: float = 1.0
    #: Run seeds whose first ``crash_attempts`` execution attempts raise a
    #: :class:`~repro.errors.WorkerCrashError` inside the batch executor.
    crash_seeds: Tuple[int, ...] = ()
    crash_attempts: int = 1

    def __post_init__(self) -> None:
        if self.checkpoint_delay_s < 0:
            raise ConfigurationError("checkpoint delay must be >= 0")
        if not 0.0 <= self.checkpoint_failure_rate <= 1.0:
            raise ConfigurationError("checkpoint failure rate must be in [0, 1]")
        if self.disk_copy_factor <= 0 or self.startup_factor <= 0:
            raise ConfigurationError("stretch factors must be > 0")
        if self.crash_attempts < 1:
            raise ConfigurationError("crash_attempts must be >= 1")

    # -------------------------------------------------------------- builders
    @classmethod
    def revocation_storm(
        cls,
        seed: int,
        horizon_s: float,
        *,
        n_spikes: int = 6,
        duration_s: float = 900.0,
        factor: float = 5.0,
        markets: Optional[Tuple[str, ...]] = None,
        **kw,
    ) -> "FaultPlan":
        """A seeded storm: ``n_spikes`` windows drawn uniformly over the
        horizon, each raising the price to ``factor`` x on-demand (the
        default 5.0 sits above the 4x bid cap, so every legal bid is
        revoked). Same seed, same storm.
        """
        if horizon_s <= duration_s:
            raise ConfigurationError("storm horizon must exceed the spike duration")
        rng = np.random.default_rng([_STORM_STREAM, seed])
        starts = np.sort(rng.uniform(0.0, horizon_s - duration_s, size=n_spikes))
        spikes = tuple(
            PriceSpike(start_s=float(s), duration_s=duration_s, factor=factor, markets=markets)
            for s in starts
        )
        return cls(seed=seed, spikes=spikes, **kw)

    @classmethod
    def correlated_spike(
        cls,
        at_s: float,
        duration_s: float,
        *,
        factor: float = 5.0,
        markets: Optional[Tuple[str, ...]] = None,
        **kw,
    ) -> "FaultPlan":
        """A single scripted spike (all markets unless ``markets`` given)."""
        return cls(
            spikes=(PriceSpike(start_s=at_s, duration_s=duration_s, factor=factor, markets=markets),),
            **kw,
        )

    def with_(self, **kw) -> "FaultPlan":
        """A copy with fields replaced."""
        return replace(self, **kw)

    # -------------------------------------------------------------- queries
    @property
    def touches_catalog(self) -> bool:
        return bool(self.spikes)

    @property
    def touches_provider(self) -> bool:
        return (
            self.checkpoint_delay_s > 0
            or self.checkpoint_failure_rate > 0
            or self.disk_copy_factor != 1.0
            or self.startup_factor != 1.0
        )

    @property
    def is_active(self) -> bool:
        return self.touches_catalog or self.touches_provider or bool(self.crash_seeds)

    def should_crash(self, run_seed: int, attempt: int) -> bool:
        """Should execution attempt ``attempt`` (0-based) of ``run_seed``
        crash? Used by :func:`repro.runtime.run_batch`'s retry loop."""
        return run_seed in self.crash_seeds and attempt < self.crash_attempts

    # ------------------------------------------------------------ application
    def apply_to_catalog(self, catalog: TraceCatalog) -> TraceCatalog:
        """A new catalog with every spike overlaid on its traces.

        On-demand prices are untouched (spikes model spot-market pressure,
        not provider repricing), so billing, bid caps and planned-migration
        thresholds all see the spiked spot prices against the original
        on-demand baseline.
        """
        if not self.touches_catalog:
            return catalog
        traces = {}
        od = {}
        for key in catalog.markets():
            base = catalog.trace(key)
            odp = catalog.on_demand_price(key)
            windows = [
                (s.start_s, s.end_s, s.factor * odp)
                for s in self.spikes
                if s.hits(str(key))
            ]
            traces[key] = _overlay(base, windows)
            od[key] = odp
        return TraceCatalog(traces, od, catalog.horizon)

    def wrap_provider(self, provider, run_seed: int = 0):
        """Decorate a :class:`~repro.cloud.provider.CloudProvider` in place
        with this plan's provider-level faults; returns the provider.

        Attaches ``provider.fault_stats`` (a :class:`FaultStats`) so tests
        and oracles can see what was injected.
        """
        stats = FaultStats()
        if self.startup_factor != 1.0:
            provider.startup = _StretchedStartup(provider.startup, self.startup_factor)
        if self.disk_copy_factor != 1.0:
            provider.disk_copy_factor = self.disk_copy_factor
        if self.checkpoint_delay_s > 0 or self.checkpoint_failure_rate > 0:
            rng = np.random.default_rng([_CKPT_STREAM, self.seed or 0, run_seed])
            provider.volumes = _FaultyVolumeStore(
                provider.volumes,
                delay_s=self.checkpoint_delay_s,
                failure_rate=self.checkpoint_failure_rate,
                rng=rng,
                stats=stats,
            )
        provider.fault_stats = stats
        return provider
