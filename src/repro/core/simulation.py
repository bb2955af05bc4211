"""One-call simulation facade: a run description in, results out.

A :class:`RunSpec` describes one seeded scheduler run declaratively.
:func:`build_stack` is the one place a run is set up — trace catalog,
provider, scheduler — :func:`run_simulation` runs that stack to the
horizon and distils a :class:`~repro.core.results.SimulationResult`, and
:func:`run_many` repeats it over seeds, mirroring the paper's "different
sample for each simulation run" methodology.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.core.bidding import BiddingPolicy, ProactiveBidding
from repro.core.replication import RemusPairStrategy, ReplicatedScheduler
from repro.core.results import MIGRATION_COUNTERS, SimulationResult
from repro.core.scheduler import CloudScheduler
from repro.core.strategies import HostingStrategy
from repro.cloud.provider import CloudProvider
from repro.cloud.spot_market import REVOCATION_GRACE_S
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.simulator.engine import Engine
from repro.simulator.rng import RngStreams
from repro.traces.calibration import MarketCalibration, REGIONS, SIZES
from repro.traces.catalog import MarketKey, TraceCatalog, build_catalog
from repro.traces.ingest import load_segment_catalog
from repro.units import SECONDS_PER_HOUR, days
from repro.vm.mechanisms import (
    Mechanism,
    MechanismParams,
    MigrationModel,
    TYPICAL_PARAMS,
)

if TYPE_CHECKING:
    from repro.runtime.options import ExecutionOptions
    from repro.runtime.spec import StrategySpec

__all__ = [
    "RunSpec",
    "SimStack",
    "ObservedRun",
    "build_stack",
    "summarize_stack",
    "run_simulation",
    "run_simulation_observed",
    "run_many",
]


#: :class:`~repro.runtime.spec.StrategySpec`, resolved by the first
#: :class:`RunSpec` built (repro.runtime builds on this module).
_STRATEGY_SPEC: Optional[type] = None


def _strategy_spec_type() -> type:
    global _STRATEGY_SPEC
    from repro.runtime.spec import StrategySpec

    _STRATEGY_SPEC = StrategySpec
    return StrategySpec


@dataclass(frozen=True)
class RunSpec:
    """One scheduler run, declaratively: everything :func:`build_stack`
    needs apart from an optional prebuilt catalog.

    ``strategy`` is a :class:`~repro.runtime.spec.StrategySpec`, which
    builds a fresh strategy per run, pickles to worker processes and
    fingerprints for run ledgers.
    """

    strategy: StrategySpec
    bidding: BiddingPolicy = field(default_factory=ProactiveBidding)
    mechanism: Mechanism = Mechanism.CKPT_LR_LIVE
    params: MechanismParams = TYPICAL_PARAMS
    seed: int = 0
    horizon_s: float = days(30)
    regions: tuple = REGIONS
    sizes: tuple = SIZES
    calibrations: Optional[Mapping[tuple, MarketCalibration]] = None
    startup_cv: float = 0.25
    service_disk_gib: float = 2.0
    label: str = ""
    #: Optional :class:`repro.testkit.faults.FaultPlan` (any object with
    #: ``apply_to_catalog``/``wrap_provider``), applied by
    #: :func:`build_stack`: spikes overlay the catalog before the provider
    #: sees it, so billing and bids both face the faulted prices.
    faults: Optional[Any] = None
    #: Revocation warning window; additive: fingerprinted only off-default.
    grace_s: float = field(default=REVOCATION_GRACE_S, metadata={"additive": True})
    #: Absolute path of an ingested segment directory whose prices the run
    #: replays instead of generating them from ``seed``; additive.
    traces: Optional[str] = field(default=None, metadata={"additive": True})

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, _STRATEGY_SPEC or _strategy_spec_type()):
            raise ConfigurationError(
                f"RunSpec.strategy must be a StrategySpec, got {self.strategy!r}: "
                "describe it as StrategySpec.of(kind, ...), after "
                "register_strategy_kind(kind, cls) for a class from outside repro"
            )
        if self.horizon_s <= SECONDS_PER_HOUR:
            raise ConfigurationError("horizon must exceed one hour")
        if not 0.0 <= self.grace_s < math.inf:
            raise ConfigurationError(f"grace_s must be finite and >= 0, got {self.grace_s!r}")
        if self.traces is not None and not os.path.isabs(self.traces):
            raise ConfigurationError(f"traces must be an absolute path, got {self.traces!r}")
        if self.traces is not None and self.calibrations is not None:
            raise ConfigurationError("traces replays an archive; calibrations cannot apply")

    def with_(self, **kw) -> "RunSpec":
        """A copy with fields replaced."""
        return replace(self, **kw)

    def catalog_key(self):
        """The trace-catalog cache key for this run, or ``None`` when the
        run is uncacheable (unhashable calibration overrides)."""
        # Imported lazily: repro.runtime builds on this module.
        from repro.runtime.cache import CatalogKey

        return CatalogKey.of(
            self.seed, self.horizon_s, self.regions, self.sizes, self.calibrations,
            source=self.traces,
        )


def _result_label(spec: RunSpec, strategy: HostingStrategy) -> str:
    if spec.label:
        return spec.label
    return f"{spec.bidding.name}/{spec.mechanism.value}/{strategy!r}"


@dataclass(frozen=True)
class ObservedRun:
    """One simulation's summary plus its observability by-products."""

    result: SimulationResult
    fired_events: int  #: discrete events the engine processed
    metrics: MetricsRegistry  #: the scheduler's per-run metric registry
    #: Which engine actually executed the run: ``"event"`` (per-event
    #: loop) or ``"vector"`` (batched boundary scans). A run *requested*
    #: on the vector engine still reports ``"event"`` when its
    #: configuration was not vectorizable and the scheduler fell back.
    engine_kind: str = "event"
    #: Boundary-check instants the vector engine evaluated as array scans
    #: (0 on the event engine).
    vector_checks: int = 0
    #: Per-market ``(lo, hi)`` envelope of every price the run compared
    #: against its reverse-migration threshold (``None`` off the vector
    #: scheduler). The batch executor's band tier uses it to clone runs
    #: whose reverse thresholds this trajectory provably never told apart.
    reverse_band: Optional[Dict[object, Tuple[float, float]]] = None


@dataclass
class SimStack:
    """The fully-assembled machinery of one simulation run.

    Built by :func:`build_stack`, run via ``stack.scheduler.run()``, and
    summarised by :func:`summarize_stack`. Keeping the live objects
    together lets post-run oracles (:mod:`repro.testkit.oracles`) audit
    the ledger, availability tracker, and provider against the distilled
    :class:`~repro.core.results.SimulationResult`.
    """

    spec: RunSpec
    catalog: TraceCatalog
    provider: CloudProvider
    engine: Engine
    scheduler: CloudScheduler
    strategy: HostingStrategy


def build_stack(
    spec: RunSpec,
    sink: TraceSink = NULL_SINK,
    engine: str = "event",
    *,
    catalog: Optional[TraceCatalog] = None,
) -> SimStack:
    """Assemble catalog, provider, engine and scheduler for one run.

    The one place a run is set up, on every path (direct calls,
    ``run_batch`` at any ``jobs``, the golden corpus). ``catalog`` reuses
    a prebuilt trace set; otherwise ``spec.traces``' archive is loaded
    (its ``regions`` x ``sizes`` markets), or a sample is generated from
    ``spec.seed``. The bidding policy is deep-copied, so no run sees
    state an earlier run left in it.

    If ``spec.faults`` is set, its spikes are overlaid on the catalog
    before the provider is constructed (so billing sees the spiked
    prices) and its provider-level faults are applied before the
    scheduler takes the provider.

    ``engine="vector"`` builds a
    :class:`~repro.runtime.vector.VectorScheduler` — bit-identical
    results with no-action decision epochs batch-scanned as array ops.
    Configurations the vector engine cannot batch (non-vectorizable
    strategy or bidding policy, an enabled trace sink) transparently run
    per-event; the scheduler's ``vectorized`` attribute says which
    happened. A :class:`~repro.core.replication.RemusPairStrategy` runs
    on a :class:`~repro.core.replication.ReplicatedScheduler` under
    either engine.
    """
    if engine not in ("event", "vector"):
        raise ConfigurationError(f"unknown engine {engine!r} (want 'event' or 'vector')")
    if catalog is None and spec.traces is not None:
        catalog = load_segment_catalog(spec.traces).restricted(
            MarketKey(r, s) for r in spec.regions for s in spec.sizes
        )
    elif catalog is None:
        catalog = build_catalog(
            seed=spec.seed,
            horizon=spec.horizon_s,
            regions=spec.regions,
            sizes=spec.sizes,
            calibrations=spec.calibrations,
        )
    if spec.traces is not None and spec.horizon_s > catalog.horizon:
        raise ConfigurationError(f"horizon runs past the archive in {spec.traces}")
    faults = spec.faults
    if faults is not None:
        catalog = faults.apply_to_catalog(catalog)
    streams = RngStreams(spec.seed)
    provider = CloudProvider(
        catalog,
        rng=streams.get("provider/startup"),
        grace_s=spec.grace_s,
        startup_cv=spec.startup_cv,
        sink=sink,
    )
    if faults is not None:
        provider = faults.wrap_provider(provider, run_seed=spec.seed)
    strategy = spec.strategy.build()
    scheduler_cls = CloudScheduler
    if isinstance(strategy, RemusPairStrategy):
        scheduler_cls = ReplicatedScheduler
    elif engine == "vector":
        # Imported lazily: repro.runtime builds on this module.
        from repro.runtime.vector import VectorScheduler

        scheduler_cls = VectorScheduler
    sim_engine = Engine(sink=sink)
    scheduler = scheduler_cls(
        engine=sim_engine,
        provider=provider,
        bidding=copy.deepcopy(spec.bidding),
        strategy=strategy,
        migration_model=MigrationModel(spec.mechanism, spec.params),
        rng=streams.get("scheduler/jitter"),
        horizon=spec.horizon_s,
        service_disk_gib=spec.service_disk_gib,
        sink=sink,
    )
    return SimStack(
        spec=spec,
        catalog=catalog,
        provider=provider,
        engine=sim_engine,
        scheduler=scheduler,
        strategy=strategy,
    )


def summarize_stack(stack: SimStack) -> SimulationResult:
    """Distil a completed stack into a :class:`SimulationResult` and set
    the summary gauges on the scheduler's metric registry."""
    spec = stack.spec
    scheduler = stack.scheduler
    avail = scheduler.availability
    ledger = scheduler.ledger
    duration_h = avail.window_duration / SECONDS_PER_HOUR
    baseline_rate = stack.strategy.baseline_rate(stack.provider)
    baseline_cost = baseline_rate * duration_h
    norm = (
        ledger.normalized_cost_percent(baseline_rate, avail.window_duration)
        if duration_h > 0
        else 0.0
    )
    forced_kinds = MIGRATION_COUNTERS["forced_migrations"]
    by_cause: dict[str, float] = {}
    for iv in avail.downtime:
        by_cause[iv.cause] = by_cause.get(iv.cause, 0.0) + iv.duration
    result = SimulationResult(
        label=_result_label(spec, stack.strategy),
        seed=spec.seed,
        duration_hours=duration_h,
        total_cost=ledger.total,
        baseline_cost=baseline_cost,
        normalized_cost_percent=norm,
        unavailability_percent=avail.unavailability_percent(),
        downtime_s=avail.total_downtime(),
        degraded_s=avail.total_degraded(),
        **{name: scheduler.migration_count(*kinds) for name, kinds in MIGRATION_COUNTERS.items()},
        spot_cost=ledger.total_by_kind("spot"),
        on_demand_cost=ledger.total_by_kind("on_demand"),
        spot_time_fraction=scheduler.spot_time_fraction(),
        downtime_by_cause=by_cause,
        forced_times=tuple(
            m.started_at for m in scheduler.migrations if m.kind in forced_kinds
        ),
    )
    metrics = scheduler.metrics
    metrics.gauge("total_cost_usd").set(result.total_cost)
    metrics.gauge("normalized_cost_percent").set(result.normalized_cost_percent)
    metrics.gauge("unavailability_percent").set(result.unavailability_percent)
    metrics.gauge("spot_time_fraction").set(result.spot_time_fraction)
    return result


def run_simulation(
    spec: RunSpec,
    verify: bool = False,
    *,
    catalog: Optional[TraceCatalog] = None,
) -> SimulationResult:
    """Run one seeded scheduler simulation and summarise it.

    ``catalog`` reuses a prebuilt trace set (see :func:`build_stack`).
    ``verify=True`` runs the :mod:`repro.testkit.oracles` conservation
    checks after the run and raises
    :class:`~repro.errors.InvariantViolation` if any fail.
    """
    return run_simulation_observed(spec, verify=verify, catalog=catalog).result


def run_simulation_observed(
    spec: RunSpec,
    sink: TraceSink = NULL_SINK,
    verify: bool = False,
    engine: str = "event",
    *,
    catalog: Optional[TraceCatalog] = None,
) -> ObservedRun:
    """Run one simulation with decision tracing and metrics attached.

    ``sink`` receives every :mod:`repro.obs` trace event the stack emits
    (engine, provider, scheduler); the default null sink costs one branch
    per emission site, so results are identical whether or not anyone is
    listening. The returned :class:`ObservedRun` carries the scheduler's
    metric registry alongside the usual summary. ``verify=True`` audits
    the completed stack with the invariant oracles and raises
    :class:`~repro.errors.InvariantViolation` on any red check.
    ``engine`` selects the execution engine and ``catalog`` reuses a
    prebuilt trace set (see :func:`build_stack`); the returned run's
    ``engine_kind`` reports which engine actually ran.
    """
    stack = build_stack(spec, sink=sink, engine=engine, catalog=catalog)
    stack.scheduler.run()
    result = summarize_stack(stack)
    if verify:
        # Imported lazily: the testkit builds on this module.
        from repro.testkit.oracles import verify_stack

        verify_stack(stack, result).raise_on_failure()
    kind = "vector" if getattr(stack.scheduler, "vectorized", False) else "event"
    return ObservedRun(
        result=result,
        fired_events=stack.engine.fired_count,
        metrics=stack.scheduler.metrics,
        engine_kind=kind,
        vector_checks=int(getattr(stack.scheduler, "vector_checks", 0)),
        reverse_band=getattr(stack.scheduler, "reverse_band", None),
    )


def run_many(
    spec: RunSpec,
    seeds: List[int],
    *,
    execution: Optional["ExecutionOptions"] = None,
) -> List[SimulationResult]:
    """Run the same configuration over several trace samples.

    A thin wrapper over :func:`repro.runtime.run_batch`: each seed becomes
    ``spec.with_(seed=s)``, and every seed gets its own sample, served
    through the runtime's catalog cache. ``execution`` (default
    ``ExecutionOptions()``, serial) sets the worker count, engine and
    run ledger; results come back in seed order, identical at any setting.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    # Imported lazily: repro.runtime builds on this module.
    from repro.runtime import ExecutionOptions, run_batch

    e = execution or ExecutionOptions()
    specs = [spec.with_(seed=s) for s in seeds]
    return list(
        run_batch(specs, jobs=e.jobs, engine=e.engine, ledger=e.ledger, resume=e.resume).results
    )
