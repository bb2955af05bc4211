"""The batch executor: seed×variant fan-out with deterministic ordering.

``run_batch`` executes a sequence of :class:`~repro.runtime.spec.RunSpec`s
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
3. **Execute** each unit through one loop (``_run_unit``) that plans
   dedupe and fusion, clones twins and retries crashed runs. With
   ``jobs == 1`` the parent runs every unit; with ``jobs > 1`` portable
   units go to the worker pool whole, and units holding a non-portable
   run (a legacy closure factory) stay in-process, as does a batch with
   a single pending run. Workers resolve
   catalogs through their own process cache, so no catalog is shipped.
4. **Complete** each slot in the parent — clones included — journaling
   it to the ledger before reporting progress.

Engine routing (``engine=``): ``"auto"`` runs a spec on the vectorized
batch engine exactly when it is eligible — vectorizable strategy and
bidding policy, no fault plan, no trace capture — and on the per-event
engine otherwise; results are bit-identical either way, the vector
engine just skips the no-action boundary machinery. ``"event"`` forces
the per-event engine; ``"vector"`` requests the vector engine for every
run best-effort (a run whose configuration cannot be batched still
degrades to per-event inside the scheduler). A ledger never changes the
routing. Which engine actually ran each spec is reported as
:attr:`~repro.runtime.telemetry.RunTelemetry.engine_kind`.

Inside a unit, vector-routed runs are *deduplicated*: two specs whose
catalogs, strategies, seeds and bidding **dynamics** are identical (e.g.
proactive bids that all clamp at the provider's cap) drive byte-identical
simulations, so the executor runs one representative and clones its
result for the twins — reported as ``deduped_runs``.

Under ``"auto"`` (and the explicit ``"fused"`` selector) a unit goes one
step further and *fuses* the runs that do execute: dedupe keys are
capability-projected (:func:`repro.runtime.fused.fused_dedupe_key` —
parameters a strategy provably never reads are dropped, collapsing more
twins), thresholds are rank- and band-matched against the unit's
catalog, and the executed runs share one
:class:`~repro.runtime.fused.FusedScanContext`, so every boundary scan
window over a given trace timeline is materialised once for the whole
unit instead of once per run. ``"vector"`` deliberately skips all of
that but the plain dedupe — it is the unfused per-run reference path the
fused engine is tested against. Fusion is reported as
``fused_groups``/``fused_runs``.
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
from repro.errors import ConfigurationError, LedgerError, WorkerCrashError
from repro.obs.capture import notify_run, trace_capture_active
from repro.obs.sinks import NULL_SINK, MemorySink, TraceSink
from repro.runtime.cache import TraceCatalogCache, shared_catalog_cache
from repro.runtime.ledger import RunLedger, resolve_ledger_path
from repro.runtime.spec import BatchSpec, RunSpec, batch_fingerprint, spec_fingerprint
from repro.runtime.telemetry import BatchTelemetry, RunTelemetry, notify_batch
from repro.runtime.vector import ENGINE_KINDS, spec_vector_eligible

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
    fused: Optional[object] = None,
    notes: Optional[dict] = None,
) -> Tuple[SimulationResult, RunTelemetry]:
    """One execution attempt of one spec (no retry handling).

    The catalog is resolved through ``cache``. ``fused`` is the run's
    fusion group's shared :class:`~repro.runtime.fused.FusedScanContext`,
    if any. ``notes``, when given, receives execution by-products that
    don't belong in the result pair — currently ``"reverse_band"``, the
    scheduler's observed reverse-threshold envelope the band clone tier
    matches later specs against.
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
    sink: TraceSink = MemorySink() if spec.capture_trace else NULL_SINK
    observed = run_simulation_observed(
        spec.to_config(catalog=catalog), sink=sink, engine=engine, fused=fused
    )
    result = observed.result
    if notes is not None:
        notes["reverse_band"] = observed.reverse_band
    wall = time.perf_counter() - start
    trace_events = None
    if spec.capture_trace:
        # Ship events as plain dicts so they pickle across the pool boundary.
        trace_events = tuple(e.to_dict() for e in sink.events)  # type: ignore[union-attr]
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
        # A run is "fused" only if the shared context could actually be
        # consulted — i.e. the scheduler really ran vectorized.
        fused=fused is not None and observed.engine_kind == "vector",
    )
    return result, telemetry


def _execute_one(
    spec: RunSpec,
    cache: Optional[TraceCatalogCache],
    retries: int = DEFAULT_RETRIES,
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    engine: str = "event",
    fused: Optional[object] = None,
    notes: Optional[dict] = None,
) -> Tuple[SimulationResult, RunTelemetry]:
    """Run one spec with retry/backoff, resolving its catalog via ``cache``.

    A crash-shaped attempt (:data:`RETRYABLE`: an injected or organic
    :class:`~repro.errors.WorkerCrashError`, an ``OSError``) is retried up
    to ``retries`` times with exponential backoff; the final failure
    propagates. Every other exception — a bad configuration, a bug — is
    deterministic and surfaces at once, without a backoff sleep. Retries
    cannot change results — a run is a pure function of its spec (a
    shared fused scan context only caches rows the run would compute
    anyway).
    """
    for attempt in range(retries + 1):
        try:
            return _attempt_one(
                spec, cache, attempt, engine=engine, fused=fused, notes=notes
            )
        except RETRYABLE:
            if attempt >= retries:
                raise
            if retry_backoff_s > 0:
                time.sleep(retry_backoff_s * (2**attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def _resolve_engine(spec: RunSpec, engine: str) -> str:
    """Which engine one spec runs on, given the batch's ``engine`` selector.

    ``"vector"`` and ``"fused"`` are best-effort forces: every run is
    routed to the vector engine, which itself still degrades to
    per-event when the configuration cannot be batched (the two differ
    only at the batch level — ``"fused"`` additionally shares scan work
    across the group, ``"vector"`` keeps runs independent).
    Under ``"auto"``, faulted and trace-capturing runs stay on the event
    engine — fault overlays and narration want the per-boundary walk —
    and everything else goes to the vector engine when eligible.
    """
    if engine == "event":
        return "event"
    if engine in ("vector", "fused"):
        return "vector"
    if spec.faults is not None or spec.capture_trace:
        return "event"
    return "vector" if spec_vector_eligible(spec) else "event"


def _partition(
    specs: Sequence[RunSpec], pending: Sequence[int], engines: Sequence[str]
) -> List[List[int]]:
    """Split the pending runs into units, ordered by first index.

    A unit is either every pending vector-routed run sharing one catalog
    key, or a single run (event-routed, faulted, trace-capturing, or
    without a catalog key). Dedupe twins, rank/band clones and fusion
    groups never span two catalog keys, so planning each unit on its own
    reproduces the whole-batch plan exactly.
    """
    units: List[List[int]] = []
    by_catalog: Dict[object, List[int]] = {}
    for i in pending:
        spec = specs[i]
        key = None
        if engines[i] == "vector" and spec.faults is None and not spec.capture_trace:
            key = spec.catalog_key()
        if key is None:
            units.append([i])
        elif key in by_catalog:
            by_catalog[key].append(i)
        else:
            by_catalog[key] = [i]
            units.append(by_catalog[key])
    return units


def _clone(
    pair: Tuple[SimulationResult, RunTelemetry], label: str
) -> Tuple[SimulationResult, RunTelemetry]:
    """A twin's slot: its representative's result under the twin's label."""
    result, telemetry = pair
    # The spec's own label when set; otherwise the default label is a pure
    # function of the dynamics key (bidding name is in the signature), so
    # the representative's label is the twin's.
    label = label or result.label
    return (
        dataclasses.replace(result, label=label),
        dataclasses.replace(
            telemetry,
            label=label,
            deduped=True,
            fused=False,
            # The clone resolved no catalog of its own; keep the batch's
            # build/hit accounting honest.
            catalog_cache_hit=True,
            catalog_wall_s=0.0,
            catalog_source="cache",
        ),
    )


def _run_unit(
    specs: Sequence[RunSpec],
    engines: Sequence[str],
    fusion: bool,
    retries: int,
    retry_backoff_s: float,
    cache: Optional[TraceCatalogCache] = None,
) -> Iterator[Tuple[int, Tuple[SimulationResult, RunTelemetry]]]:
    """Execute one unit; yield ``(position, (result, telemetry))`` per run.

    Runs execute in position order and clones are yielded as soon as
    their representative has been, so the stream is in position order.
    ``cache`` defaults to this process's shared catalog cache — which is
    how pool workers resolve catalogs: nothing is shipped, and a worker's
    cache stays warm across batches because pools are reused.

    Three clone tiers apply. Static twins (equal dynamics keys, planned
    up front by :func:`~repro.runtime.fused.plan_fusion`) clone their
    representative. Under ``fusion`` two catalog-aware tiers follow once
    the unit's catalog is cached: bidding thresholds are *rank-projected*
    against the trace's price ladder — thresholds in the same gap
    between trace prices configure provably identical runs — and reverse
    thresholds are matched against the *reverse band* each executed
    representative records (the envelope of prices its trajectory
    compared against the reverse predicate): a later spec whose
    thresholds fall inside that envelope would have made the identical
    call at every comparison, so it clones. The first run of a catalog
    executes (and builds it); everyone after it gets the refinement.
    """
    from repro.runtime.fused import band_matches, plan_fusion, rank_projection

    if cache is None:
        cache = shared_catalog_cache()
    positions = range(len(specs))
    plan = plan_fusion(specs, positions, engines, fuse=fusion)
    done: Dict[int, Tuple[SimulationResult, RunTelemetry]] = {}
    rank_rep: Dict[tuple, int] = {}
    band_reps: Dict[tuple, List[Tuple[dict, int]]] = {}
    ladders: Dict[tuple, object] = {}

    def project(i: int):
        if not fusion or engines[i] != "vector":
            return None
        ck = specs[i].catalog_key()
        catalog = cache.peek(ck) if ck is not None else None
        return None if catalog is None else rank_projection(specs[i], catalog, ladders)

    for i in positions:
        rep = plan.twin_of.get(i)
        proj = project(i) if rep is None else None
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
                cache.get_or_build(specs[i].catalog_key())
        if rep is not None:
            done[i] = _clone(done[rep], specs[i].label)
            yield i, done[i]
            continue
        notes: dict = {}
        done[i] = _execute_one(
            specs[i], cache, retries, retry_backoff_s, engines[i],
            fused=plan.context_of.get(i), notes=notes,
        )
        if proj is None:
            # This run built its catalog: project its key now so later
            # threshold-equivalent specs clone it.
            proj = project(i)
        if proj is not None:
            rkey, reverse = proj
            if reverse is None:
                rank_rep.setdefault(rkey, i)
            elif notes.get("reverse_band") is not None:
                band_reps.setdefault(rkey, []).append((notes["reverse_band"], i))
        yield i, done[i]


def _run_unit_list(*args) -> List[Tuple[int, Tuple[SimulationResult, RunTelemetry]]]:
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
        batch engine (with cross-run fusion) and the rest per-event; ``"event"`` and ``"vector"`` force one
        engine batch-wide (``"vector"`` is best-effort — non-batchable
        configurations still degrade to per-event inside the scheduler —
        and stays unfused, as the per-run reference path); ``"fused"``
        is ``"vector"`` routing plus the cross-run fusion layer.
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
        submission order). Not called for runs replayed from a ledger.
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
        by batch fingerprint).
        Appends are atomic, so an orchestrator killed mid-batch loses at
        most the run it was writing. Without ``resume``, an existing
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
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if resume and ledger is None:
        raise ConfigurationError("resume=True needs a ledger path")
    if engine not in ENGINE_KINDS:
        raise ConfigurationError(
            f"unknown engine {engine!r} (choices: {', '.join(ENGINE_KINDS)})"
        )
    if cache is None:
        cache = shared_catalog_cache()
    if trace_capture_active():
        # An observe(trace=True) scope is watching: flip every run to event
        # capture. Capture never changes results, only telemetry payloads.
        # (Fingerprints exclude capture_trace, so ledgers are unaffected.)
        specs = tuple(
            s if s.capture_trace else s.with_(capture_trace=True) for s in specs
        )

    journal: Optional[RunLedger] = None
    fingerprints: Tuple[str, ...] = ()
    resumed = False
    batch_start = time.perf_counter()
    slots: List[Optional[Tuple[SimulationResult, RunTelemetry]]] = [None] * len(specs)
    if ledger is not None:
        fingerprints = tuple(spec_fingerprint(s) for s in specs)
        journal, replayed, resumed = _open_ledger(
            ledger, resume, specs, fingerprints, batch_fingerprint(specs)
        )
        for i, pair in replayed.items():
            slots[i] = pair

    def _complete(i: int, pair: Tuple[SimulationResult, RunTelemetry]) -> None:
        """One slot filled (executed or cloned): journal it, then report
        progress.

        Journaling first is what makes `kill after n runs` recoverable:
        a run either reached the ledger or will re-execute on resume.
        """
        slots[i] = pair
        if journal is not None:
            journal.record_run(i, fingerprints[i], pair[0], pair[1])
        if progress is not None:
            progress(pair[1])

    pending = [i for i in range(len(specs)) if slots[i] is None]
    engines = tuple(_resolve_engine(s, engine) for s in specs)
    fusion = engine in ("auto", "fused")
    units = _partition(specs, pending, engines)
    parallel_runs = 0
    # A lone pending run gains nothing from a worker; it runs in-process.
    pool = _get_pool(jobs) if jobs > 1 and len(pending) > 1 else None

    def unit_args(unit: List[int]) -> tuple:
        return (
            tuple(specs[i] for i in unit),
            tuple(engines[i] for i in unit),
            fusion,
            retries,
            retry_backoff_s,
        )

    # Portable units go to the pool; the rest run in-process first, while
    # the pool churns. Either way a unit runs through the same loop.
    dispatch = [
        (unit, pool.submit(_run_unit_list, *unit_args(unit)))
        if pool is not None and all(specs[i].is_portable() for i in unit)
        else (unit, None)
        for unit in units
    ]
    dispatch.sort(key=lambda pair: pair[1] is not None)
    try:
        for unit, future in dispatch:
            pairs = None
            if future is not None:
                try:
                    pairs = future.result()
                    parallel_runs += len(unit)
                except BrokenProcessPool:
                    # The pool died (hard worker crash, OOM kill, ...).
                    # Discard it and run this unit in-process — results
                    # are identical, only slower.
                    _discard_pool(jobs)
            if pairs is None:
                pairs = _run_unit(*unit_args(unit), cache)
            for pos, pair in pairs:
                _complete(unit[pos], pair)
    finally:
        if journal is not None:
            journal.close()

    results = tuple(pair[0] for pair in slots)  # type: ignore[union-attr]
    run_telemetry = tuple(pair[1] for pair in slots)  # type: ignore[union-attr]
    fresh = {i: run_telemetry[i] for i in pending}  # executed or cloned here
    # Report to observation scopes in submission order — this, not worker
    # completion order, is what keeps trace files identical at any --jobs.
    for t in run_telemetry:
        notify_run(
            t.label, t.seed, t.trace_events, t.metrics,
            engine=t.engine_kind, fused=t.fused, deduped=t.deduped,
        )
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
        fused_groups=sum(1 for unit in units if any(fresh[i].fused for i in unit)),
        fused_runs=sum(1 for t in fresh.values() if t.fused),
    )
    notify_batch(telemetry)
    return BatchResult(results=results, run_telemetry=run_telemetry, telemetry=telemetry)
