"""repro — reproduction of "Cutting the Cost of Hosting Online Services
Using Cloud Spot Markets" (He, Shenoy, Sitaraman, Irwin — HPDC 2015).

The library hosts an *always-on* Internet service on a simulated cloud
combining cheap revocable spot servers with non-revocable on-demand
servers. The headline result: a proactive bidding policy plus fast VM
migration mechanisms (nested virtualization, live migration, bounded
checkpointing, lazy restore) cuts hosting cost to one-third to one-fifth
of an all-on-demand deployment while keeping unavailability near the
four-nines target.

Quick start::

    from repro import (
        RunSpec, run_simulation, StrategySpec,
        ProactiveBidding, MarketKey,
    )

    key = MarketKey("us-east-1a", "small")
    result = run_simulation(RunSpec(
        strategy=StrategySpec.single(key),
        bidding=ProactiveBidding(),
        regions=("us-east-1a",), sizes=("small",),
        seed=42,
    ))
    print(result.normalized_cost_percent, result.unavailability_percent)

Package map:

* :mod:`repro.core` — the cloud scheduler (bidding, strategies, accounting);
* :mod:`repro.cloud` — provider substrate (markets, billing, leases, EBS, VPC);
* :mod:`repro.traces` — spot-price traces (generation, IO, statistics);
* :mod:`repro.vm` — migration mechanism models;
* :mod:`repro.workload` — TPC-W queueing model and I/O micro-benchmarks;
* :mod:`repro.simulator` — the discrete-event kernel;
* :mod:`repro.runtime` — declarative batch execution (specs, catalog
  cache, parallel seed×variant fan-out, run telemetry);
* :mod:`repro.obs` — structured decision tracing and run metrics
  (typed trace events, sinks, ``observe`` scopes, ``repro-trace`` CLI);
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from repro._version import __version__
from repro.core import (
    AdaptiveBidding,
    AggregateResult,
    AvailabilityTracker,
    BiddingPolicy,
    CloudScheduler,
    CostLedger,
    HostingStrategy,
    MultiMarketStrategy,
    MultiRegionStrategy,
    OnDemandOnlyStrategy,
    ProactiveBidding,
    PureSpotStrategy,
    ReactiveBidding,
    SimulationResult,
    SingleMarketStrategy,
    StabilityAwareStrategy,
    aggregate,
    run_many,
    run_simulation,
)
from repro.cloud import CloudProvider, Lease, LeaseKind, SpotMarket
from repro.errors import ReproError
from repro.obs import (
    MemorySink,
    MetricsRegistry,
    NullSink,
    TraceEvent,
    TraceSink,
    observe,
    read_jsonl,
)
from repro.runtime import (
    BatchResult,
    BatchSpec,
    BatchTelemetry,
    RunSpec,
    RunTelemetry,
    StrategySpec,
    TraceCatalogCache,
    run_batch,
)
from repro.traces import (
    MarketKey,
    PriceTrace,
    TraceCatalog,
    build_catalog,
    calibration_for,
    generate_trace,
    load_aws_csv,
    save_aws_csv,
)
from repro.vm import (
    Mechanism,
    MechanismParams,
    MigrationModel,
    PESSIMISTIC_PARAMS,
    TYPICAL_PARAMS,
)
from repro.workload import TpcwConfig, TpcwModel

__all__ = [
    "__version__",
    "AdaptiveBidding",
    "AggregateResult",
    "AvailabilityTracker",
    "BiddingPolicy",
    "CloudScheduler",
    "CostLedger",
    "HostingStrategy",
    "MultiMarketStrategy",
    "MultiRegionStrategy",
    "OnDemandOnlyStrategy",
    "ProactiveBidding",
    "PureSpotStrategy",
    "ReactiveBidding",
    "SimulationResult",
    "SingleMarketStrategy",
    "StabilityAwareStrategy",
    "aggregate",
    "run_many",
    "run_simulation",
    "BatchResult",
    "BatchSpec",
    "BatchTelemetry",
    "RunSpec",
    "RunTelemetry",
    "StrategySpec",
    "TraceCatalogCache",
    "run_batch",
    "CloudProvider",
    "Lease",
    "LeaseKind",
    "SpotMarket",
    "MarketKey",
    "PriceTrace",
    "TraceCatalog",
    "build_catalog",
    "calibration_for",
    "generate_trace",
    "load_aws_csv",
    "save_aws_csv",
    "Mechanism",
    "MechanismParams",
    "MigrationModel",
    "TYPICAL_PARAMS",
    "PESSIMISTIC_PARAMS",
    "TpcwConfig",
    "TpcwModel",
    "ReproError",
    "TraceEvent",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "MetricsRegistry",
    "observe",
    "read_jsonl",
]
