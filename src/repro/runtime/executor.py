"""The batch executor: seed×variant fan-out with deterministic ordering.

``run_batch`` executes a sequence of :class:`~repro.core.simulation.RunSpec`s
and returns results **in submission order**, whatever the worker count —
``jobs=4`` is field-for-field identical to ``jobs=1`` because every run is
fully determined by its spec (seed-derived RNG, deterministic catalog
generation).

Every batch, at every ``jobs`` value and with or without a ledger, takes
one path:

1. **Route** each pending run to an engine in the parent.
2. **Partition** the pending runs into *units*: all vector-routed runs
   sharing one catalog key form one unit; every other run (event-routed,
   faulted, trace-capturing, without a catalog key) is a unit of its own.
3. **Execute** each unit through one loop (``_run_unit``) that clones
   provably identical runs and retries crashed runs. With
   ``jobs == 1``, or a single pending run, the parent runs every unit;
   with ``jobs > 1`` every unit is one pool task. Workers resolve
   catalogs through their own process cache, so no catalog is shipped.
4. **Complete** each slot in the parent — clones included. A unit's
   stream arrives in *groups* (one executed run and the clones that
   follow it); each group is journaled under one ledger commit before
   progress is reported for its runs.

Engine routing (``engine=``): ``"auto"`` runs a spec on the vectorized
batch engine exactly when it is eligible — vectorizable strategy and
bidding policy, no fault plan, no trace capture — and on the per-event
engine otherwise; results are bit-identical either way, the vector
engine just skips the no-action boundary machinery. ``"event"`` forces
the per-event engine. A ledger never changes the routing. Which engine
actually ran each spec is reported as
:attr:`~repro.runtime.telemetry.RunTelemetry.engine_kind`.

Inside a unit, vector-routed runs are *deduplicated* across two clone
tiers (:mod:`repro.runtime.fused`), both keyed by one
:func:`~repro.runtime.fused.dynamics_key`: thresholds rank-projected
against the unit's price ladder (parameters a strategy provably never
reads are dropped), and reverse thresholds matched against the band an
executed representative compared. Two specs that land in one class drive
byte-identical simulations, so the executor runs one representative and
clones its result for the twins — reported as ``deduped_runs``.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.results import SimulationResult
from repro.core.simulation import RunSpec
from repro.errors import ConfigurationError, LedgerError, WorkerCrashError
from repro.obs.capture import notify_batch, trace_capture_active
from repro.obs.sinks import NULL_SINK, MemorySink, TraceSink
from repro.runtime.cache import TraceCatalogCache, shared_catalog_cache
from repro.runtime.ledger import RunLedger, resolve_ledger_path
from repro.runtime.spec import (
    BatchSpec,
    batch_fingerprint,
    spec_fingerprints,
)
from repro.runtime.telemetry import BatchTelemetry, RunTelemetry
from repro.runtime.options import ExecutionOptions
from repro.runtime.vector import policies_vectorizable

__all__ = ["BatchResult", "run_batch"]

#: Progress hook: called once per completed run (completion order).
ProgressCallback = Callable[[RunTelemetry], None]

#: Default retry budget for crashed runs and its exponential-backoff base.
#: Retrying is always safe: a run is a pure function of its spec, so a
#: re-execution is byte-identical to the attempt that crashed.
DEFAULT_RETRIES = 2
DEFAULT_RETRY_BACKOFF_S = 0.05
#: Crash-shaped failures the retry loop absorbs. Anything else is
#: deterministic and would fail identically on every attempt.
RETRYABLE = (WorkerCrashError, OSError)


@dataclass(frozen=True)
class BatchResult:
    """Results plus instrumentation of one executed batch."""

    results: Tuple[SimulationResult, ...]  #: submission order
    run_telemetry: Tuple[RunTelemetry, ...]  #: submission order
    telemetry: BatchTelemetry


def _attempt_one(
    spec: RunSpec,
    cache: Optional[TraceCatalogCache],
    attempt: int,
    engine: str = "event",
    notes: Optional[dict] = None,
    capture: bool = False,
) -> Tuple[SimulationResult, RunTelemetry]:
    """One execution attempt of one spec (no retry handling).

    The catalog is resolved through ``cache``; ``capture`` records the
    run's trace events onto its telemetry. ``notes``, when given,
    receives execution by-products that don't belong in the result pair —
    currently ``"reverse_band"``, the scheduler's observed
    reverse-threshold envelope the band clone tier matches later specs
    against.
    """
    from repro.core.simulation import run_simulation_observed

    faults = spec.faults
    if faults is not None and getattr(faults, "crash_seeds", ()):
        if faults.should_crash(spec.seed, attempt):
            raise WorkerCrashError(
                f"injected worker crash: seed={spec.seed} attempt={attempt}"
            )
    start = time.perf_counter()
    catalog = None
    cache_hit = False
    catalog_wall = 0.0
    source = ""
    key = spec.catalog_key() if cache is not None else None
    if key is not None:
        catalog, cache_hit, catalog_wall = cache.get_or_build(key)
        source = "cache" if cache_hit else "build"
    sink: TraceSink = MemorySink() if capture else NULL_SINK
    observed = run_simulation_observed(spec, sink=sink, engine=engine, catalog=catalog)
    result = observed.result
    if notes is not None:
        notes["reverse_band"] = observed.reverse_band
    wall = time.perf_counter() - start
    trace_events = sink.to_dicts() if capture else None  # type: ignore[attr-defined]
    telemetry = RunTelemetry(
        label=result.label,
        seed=spec.seed,
        wall_s=wall,
        events_processed=observed.fired_events,
        catalog_wall_s=catalog_wall,
        catalog_cache_hit=cache_hit,
        catalog_source=source,
        worker_pid=os.getpid(),
        attempts=attempt + 1,
        metrics=observed.metrics.to_dict(),
        trace_events=trace_events,
        engine_kind=observed.engine_kind,
        vector_checks=observed.vector_checks,
    )
    return result, telemetry


def _execute_one(
    spec: RunSpec,
    cache: Optional[TraceCatalogCache],
    retries: int = DEFAULT_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    engine: str = "event",
    notes: Optional[dict] = None,
    capture: bool = False,
) -> Tuple[SimulationResult, RunTelemetry]:
    """Run one spec with retry/backoff, resolving its catalog via ``cache``.

    A crash-shaped attempt (:data:`RETRYABLE`: an injected or organic
    :class:`~repro.errors.WorkerCrashError`, an ``OSError``) is retried up
    to ``retries`` times with exponential backoff; the final failure
    propagates. Every other exception — a bad configuration, a bug — is
    deterministic and surfaces at once, without a backoff sleep. Retries
    cannot change results — a run is a pure function of its spec.
    """
    for attempt in range(retries + 1):
        try:
            return _attempt_one(spec, cache, attempt, engine, notes, capture)
        except RETRYABLE:
            if attempt >= retries:
                raise
            if retry_backoff_s > 0:
                time.sleep(retry_backoff_s * (2**attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def _resolve_engines(specs: Sequence[RunSpec], engine: str, capture: bool) -> Tuple[str, ...]:
    """Which engine each spec runs on, given the batch's ``engine`` selector.

    Under ``"auto"``, a trace-capturing batch (``capture``) and faulted
    runs stay on the event engine — narration and fault overlays want
    the per-boundary walk — and everything else goes to the vector
    engine when its strategy and bidding policy are both vectorizable.
    Reading the strategy's flag means building it, once per distinct
    :class:`~repro.runtime.spec.StrategySpec` object of the batch (keyed
    by identity, with a reference kept so no id is reused); a spec that
    cannot build raises here.
    """
    if engine == "event" or capture:
        return ("event",) * len(specs)
    built: Dict[int, tuple] = {}

    def resolve(spec: RunSpec) -> str:
        if spec.faults is not None:
            return "event"
        hit = built.get(id(spec.strategy))
        if hit is None:
            hit = built[id(spec.strategy)] = (spec.strategy, spec.strategy.build())
        if policies_vectorizable(hit[1], spec.bidding):
            return "vector"
        return "event"

    return tuple(resolve(s) for s in specs)


def _partition(
    specs: Sequence[RunSpec], pending: Sequence[int], engines: Sequence[str]
) -> List[List[int]]:
    """Split the pending runs into units, ordered by first index.

    A unit is either every pending vector-routed run sharing one catalog
    key, or a single run (event-routed or without a catalog key; faulted
    runs and trace-capturing batches are always event-routed). Rank and band
    clones never span two catalog keys, so deduplicating each unit on its
    own finds every clone a whole-batch pass would.
    """
    units: List[List[int]] = []
    by_catalog: Dict[object, List[int]] = {}
    for i in pending:
        key = specs[i].catalog_key() if engines[i] == "vector" else None
        if key is None:
            units.append([i])
        elif key in by_catalog:
            by_catalog[key].append(i)
        else:
            by_catalog[key] = [i]
            units.append(by_catalog[key])
    return units


_SET = object.__setattr__
#: Field names per dataclass type :func:`_replaced` has copied.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _replaced(obj, **changes):
    """``dataclasses.replace`` without re-running ``__init__``: a shallow
    copy of a (frozen) dataclass instance with ``changes`` applied.

    Fields are read and set one by one. Going through ``__dict__``
    instead would give the clone (and its representative) a dict object
    of its own, which ``__init__`` does not; over a 20,000-run sweep that
    shows as megabytes of peak RSS.
    """
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    new = object.__new__(cls)
    for name in names:
        _SET(new, name, changes[name] if name in changes else getattr(obj, name))
    return new


def _clone(
    pair: Tuple[SimulationResult, RunTelemetry], label: str
) -> Tuple[SimulationResult, RunTelemetry]:
    """A twin's slot: its representative's result under the twin's label."""
    result, telemetry = pair
    # The spec's own label when set; otherwise the default label is a pure
    # function of the dynamics key (the bidding policy's name is in it), so
    # the representative's label is the twin's.
    label = label or result.label
    return (
        _replaced(result, label=label),
        _replaced(
            telemetry,
            label=label,
            deduped=True,
            # The clone resolved no catalog of its own; keep the batch's
            # build/hit accounting honest.
            catalog_cache_hit=True,
            catalog_wall_s=0.0,
            catalog_source="cache",
        ),
    )


#: One completed slot of a unit: ``(position, (result, telemetry))``.
Slot = Tuple[int, Tuple[SimulationResult, RunTelemetry]]


def _run_unit(
    specs: Sequence[RunSpec],
    engines: Sequence[str],
    retries: int,
    retry_backoff_s: float,
    capture: bool,
    cache: Optional[TraceCatalogCache] = None,
) -> Iterator[List[Slot]]:
    """Execute one unit; yield its slots in *groups*.

    Runs execute in position order, so the stream is in position order.
    A group is one executed run followed by the clones made after it, up
    to the next execution: it is yielded just before the next run
    executes, and once more at the end of the unit. A consumer that
    journals and commits each group as it arrives therefore never holds
    a finished run's records while another run executes — the ledger's
    group-commit unit (:mod:`repro.runtime.ledger`).

    ``capture`` records each executed run's trace events. ``cache``
    defaults to this process's shared catalog cache — which is how pool
    workers resolve catalogs: nothing is shipped, and a worker's cache
    stays warm across batches because pools are reused.

    Two clone tiers apply once the unit's catalog is cached (the first
    run of a cold catalog executes and builds it). Bidding thresholds
    are *rank-projected* against the trace's price ladder
    (:func:`~repro.runtime.fused.dynamics_key`) — thresholds in the same
    gap between trace prices configure provably identical runs — and
    reverse thresholds are matched against the *reverse band* each
    executed representative records (the envelope of prices its
    trajectory compared against the reverse predicate): a later spec
    whose thresholds fall inside that envelope would have made the
    identical call at every comparison, so it clones.
    """
    from repro.runtime.fused import band_matches, dynamics_key

    if cache is None:
        cache = shared_catalog_cache()
    # A unit is one run, or vector-routed runs sharing one catalog key
    # (_partition), so its first run's key is every vector run's key.
    catalog_key = specs[0].catalog_key() if engines[0] == "vector" else None
    catalog = cache.peek(catalog_key) if catalog_key is not None else None
    done: Dict[int, Tuple[SimulationResult, RunTelemetry]] = {}
    rank_rep: Dict[tuple, int] = {}
    band_reps: Dict[tuple, List[Tuple[dict, int]]] = {}
    ladders: Dict[tuple, list] = {}
    frames: Dict[tuple, tuple] = {}

    def project(i: int):
        if catalog is None or engines[i] != "vector":
            return None
        return dynamics_key(specs[i], catalog, ladders, frames, catalog_key)

    group: List[Slot] = []
    for i, spec in enumerate(specs):
        proj = project(i)
        rep = None
        if proj is not None:
            rkey, reverse = proj
            if reverse is None:
                rep = rank_rep.get(rkey)
            else:
                rep = next(
                    (j for band, j in band_reps.get(rkey, ()) if band_matches(band, reverse)),
                    None,
                )
        if rep is not None:
            # The twin consumed the cached catalog to prove its
            # equivalence; account the lookup as a hit.
            cache.get_or_build(catalog_key)
            done[i] = _clone(done[rep], spec.label)
            group.append((i, done[i]))
            continue
        if group:
            yield group
            group = []
        notes: dict = {}
        done[i] = _execute_one(
            spec, cache, retries, retry_backoff_s, engines[i], notes, capture
        )
        if catalog is None and catalog_key is not None:
            # This run built the unit's catalog: project its key now so
            # later threshold-equivalent specs clone it.
            catalog = cache.peek(catalog_key)
            proj = project(i)
        if proj is not None:
            rkey, reverse = proj
            if reverse is None:
                rank_rep.setdefault(rkey, i)
            elif notes.get("reverse_band") is not None:
                band_reps.setdefault(rkey, []).append((notes["reverse_band"], i))
        group.append((i, done[i]))
    yield group


def _run_unit_list(*args) -> List[List[Slot]]:
    """Pool-worker entry point: one whole unit, materialised for pickling."""
    return list(_run_unit(*args))


# One persistent pool per worker count: reusing workers across batches keeps
# their catalog caches warm over the many small batches an experiment emits.
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs)
        _POOLS[jobs] = pool
    return pool


def _discard_pool(jobs: int) -> None:
    """Drop a broken pool so the next batch gets a fresh one."""
    pool = _POOLS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


def _open_ledger(
    ledger: Union[str, Path, None],
    resume: bool,
    specs: Tuple[RunSpec, ...],
    fingerprints: Tuple[str, ...],
    batch_fp: str,
) -> Tuple[Optional[RunLedger], Dict[int, Tuple[SimulationResult, RunTelemetry]], bool]:
    """Open (or resume) the batch's journal.

    Returns ``(journal, replayed slots, resumed)``. With ``resume=True``
    an existing ledger is validated against ``batch_fp`` — a mismatch is a
    hard :class:`~repro.errors.LedgerError`, never a silent partial reuse
    — and its intact run records become pre-filled result slots. Without
    ``resume`` (or when no file exists yet) a fresh ledger is started;
    :meth:`RunLedger.start` refuses to clobber a same-batch journal.
    """
    if ledger is None:
        return None, {}, False
    path = resolve_ledger_path(ledger, batch_fp)
    if resume and path.exists():
        journal, state = RunLedger.load(path)
        if state.fingerprint != batch_fp:
            raise LedgerError(
                f"ledger {path} was written for a different batch "
                f"(ledger fingerprint {state.fingerprint[:16]}..., batch "
                f"{batch_fp[:16]}...); the specs, catalogs, or package "
                "version changed — delete the ledger to start over"
            )
        if state.runs != len(specs):
            raise LedgerError(
                f"ledger {path} records a {state.runs}-run batch; "
                f"this batch has {len(specs)} runs"
            )
        replayed: Dict[int, Tuple[SimulationResult, RunTelemetry]] = {}
        for index, record in state.records.items():
            if not 0 <= index < len(specs):
                raise LedgerError(
                    f"ledger {path} records run index {index} outside the batch"
                )
            if record.fingerprint != fingerprints[index]:
                raise LedgerError(
                    f"ledger {path} run {index} fingerprint does not match "
                    "its spec — the file was modified"
                )
            replayed[index] = (record.result, record.telemetry)
        return journal, replayed, True
    return RunLedger.start(path, batch_fp, len(specs)), {}, False


def run_batch(
    runs: Union[BatchSpec, Sequence[RunSpec]],
    *,
    jobs: int = 1,
    cache: Optional[TraceCatalogCache] = None,
    progress: Optional[ProgressCallback] = None,
    retries: int = DEFAULT_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ledger: Union[str, Path, None] = None,
    resume: bool = False,
    engine: str = "auto",
) -> BatchResult:
    """Execute a batch of runs and return results in submission order.

    Parameters
    ----------
    runs:
        A :class:`BatchSpec` or sequence of :class:`RunSpec`.
    engine:
        ``"auto"`` (default) routes each eligible run — vectorizable
        policies, no faults, no trace capture — through the vectorized
        batch engine (with cross-run dedupe) and the rest per-event;
        ``"event"`` forces the per-event engine batch-wide.
        Results are bit-identical across engines; each run's
        :class:`RunTelemetry.engine_kind` reports which one executed it.
    jobs:
        Worker processes. ``1`` (the default) runs every unit serially
        in-process; ``N > 1`` fans units — one per catalog for
        vector-routed runs, one per run otherwise — across ``N`` workers.
        Results, and which runs execute or clone, are identical either way.
    cache:
        Trace-catalog cache for in-process units (defaults to this
        process's shared cache). Workers always use their process cache.
    progress:
        Called with each run's :class:`RunTelemetry` as it completes
        (completion order, which under ``jobs > 1`` may differ from
        submission order). With a ledger, a run is reported only once
        its group is committed. Not called for runs replayed from a
        ledger.
    retries:
        Per-run retry budget for crashed attempts (:data:`RETRYABLE`,
        injected or organic); each retry re-executes the same pure spec,
        so retried runs are byte-identical to first-try runs. Any other
        exception propagates on its first attempt. The consumed attempts surface on
        :class:`~repro.runtime.telemetry.RunTelemetry.attempts`.
    retry_backoff_s:
        Base sleep before a retry; doubles per attempt.
    ledger:
        Journal each completed run — clones included — to this
        append-only JSONL file (a directory gets one per-batch file named
        by batch fingerprint). Records are committed in groups, one
        executed run and the clones that follow it under one fsync, and
        a group is committed before progress is reported for any of its
        runs. An orchestrator killed mid-batch, or a power loss, loses
        at most the final group: one executed run and its clones
        re-run on resume. Without ``resume``, an existing
        ledger already journaling this same batch is refused (not
        silently truncated) — pass ``resume=True`` or delete the file.
        See :mod:`repro.runtime.ledger`.
    resume:
        With ``ledger``, validate an existing journal's batch fingerprint
        and replay its completed runs instead of re-executing them —
        the final :class:`BatchResult` is byte-identical to an
        uninterrupted run at any ``jobs``. A fingerprint mismatch raises
        :class:`~repro.errors.LedgerError`; a missing file simply starts
        a fresh journal.
    """
    specs: Tuple[RunSpec, ...] = tuple(runs.runs if isinstance(runs, BatchSpec) else runs)
    if not specs:
        raise ConfigurationError("batch needs at least one run")
    # Raises on a bad jobs/engine/resume: ExecutionOptions owns the rules.
    ExecutionOptions(jobs=jobs, engine=engine, ledger=ledger, resume=resume)
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if cache is None:
        cache = shared_catalog_cache()
    # An observe(trace=True) scope is watching: every run executes on the
    # event engine and records its trace events. Capture never changes
    # results, only telemetry payloads.
    capture = trace_capture_active()

    journal: Optional[RunLedger] = None
    fingerprints: Tuple[str, ...] = ()
    resumed = False
    batch_start = time.perf_counter()
    slots: List[Optional[Tuple[SimulationResult, RunTelemetry]]] = [None] * len(specs)
    if ledger is not None:
        fingerprints = spec_fingerprints(specs)
        journal, replayed, resumed = _open_ledger(
            ledger, resume, specs, fingerprints, batch_fingerprint(fingerprints)
        )
        for i, pair in replayed.items():
            # A run journaled without its trace events cannot feed a
            # capturing scope: it re-executes (and is journaled again).
            if not capture or pair[1].trace_events is not None:
                slots[i] = pair

    def _complete(unit: List[int], group: List[Slot]) -> None:
        """One group of a unit's slots filled (an executed run and its
        clones): journal it under one commit, then report progress.

        Committing first is what makes `kill after n runs` recoverable:
        a reported run either reached the ledger or will re-execute on
        resume.
        """
        for pos, pair in group:
            slots[unit[pos]] = pair
        if journal is not None:
            for pos, (result, telemetry) in group:
                journal.record_run(unit[pos], fingerprints[unit[pos]], result, telemetry)
            journal.commit()
        if progress is not None:
            for _, (_, telemetry) in group:
                progress(telemetry)

    pending = [i for i in range(len(specs)) if slots[i] is None]
    engines = _resolve_engines(specs, engine, capture)
    units = _partition(specs, pending, engines)
    parallel_runs = 0
    # A lone pending run gains nothing from a worker; it runs in-process.
    pool = _get_pool(jobs) if jobs > 1 and len(pending) > 1 else None

    def unit_args(unit: List[int]) -> tuple:
        return (
            tuple(specs[i] for i in unit),
            tuple(engines[i] for i in unit),
            retries,
            retry_backoff_s,
            capture,
        )

    # With a pool every unit is one task; either way a unit runs through
    # the same loop.
    futures = [
        pool.submit(_run_unit_list, *unit_args(unit)) if pool is not None else None
        for unit in units
    ]
    try:
        for unit, future in zip(units, futures):
            groups = None
            if future is not None:
                try:
                    groups = future.result()
                    parallel_runs += len(unit)
                except BrokenProcessPool:
                    # The pool died (hard worker crash, OOM kill, ...).
                    # Discard it and run this unit in-process — results
                    # are identical, only slower.
                    _discard_pool(jobs)
            if groups is None:
                groups = _run_unit(*unit_args(unit), cache)
            for group in groups:
                _complete(unit, group)
    finally:
        if journal is not None:
            journal.close()

    results = tuple(pair[0] for pair in slots)  # type: ignore[union-attr]
    run_telemetry = tuple(pair[1] for pair in slots)  # type: ignore[union-attr]
    fresh = {i: run_telemetry[i] for i in pending}  # executed or cloned here
    telemetry = BatchTelemetry(
        runs=len(specs),
        wall_s=time.perf_counter() - batch_start,
        catalog_builds=sum(1 for t in run_telemetry if not t.catalog_cache_hit),
        catalog_cache_hits=sum(1 for t in run_telemetry if t.catalog_cache_hit),
        events_processed=sum(t.events_processed for t in run_telemetry),
        jobs=jobs,
        parallel_runs=parallel_runs,
        resumed=resumed,
        replayed_runs=len(specs) - len(pending),
        engine=engine,
        vector_runs=sum(1 for t in run_telemetry if t.engine_kind == "vector"),
        vector_checks=sum(t.vector_checks for t in run_telemetry),
        deduped_runs=sum(1 for t in fresh.values() if t.deduped),
    )
    # Report to observation scopes in submission order — this, not worker
    # completion order, is what keeps trace files identical at any --jobs.
    notify_batch(run_telemetry, telemetry)
    return BatchResult(results=results, run_telemetry=run_telemetry, telemetry=telemetry)
