"""The cloud scheduler — the paper's primary contribution.

A :class:`~repro.core.scheduler.CloudScheduler` hosts an always-on service
on a mix of spot and on-demand servers, combining a bidding policy
(:mod:`repro.core.bidding`: reactive vs proactive), a hosting strategy
(:mod:`repro.core.strategies`: single-market, multi-market, multi-region,
pure-spot, on-demand-only; :mod:`repro.core.policies`: index-tracking,
no-fault-tolerance, LP portfolio bid; :mod:`repro.core.replication`: the
Remus pair) and a migration mechanism
(:mod:`repro.vm.mechanisms`). Strategy families register themselves with
:mod:`repro.core.registry`, which every consumer (CLIs, specs, fleet
synthesis) enumerates. Costs and downtime are tracked by
:mod:`repro.core.accounting`; :func:`repro.core.simulation.run_simulation`
is the one-call facade the experiments use.
"""

from repro.core.accounting import AvailabilityTracker, CostLedger, DowntimeInterval
from repro.core.bidding import BiddingPolicy, ReactiveBidding, ProactiveBidding
from repro.core.adaptive import AdaptiveBidding
from repro.core.strategies import (
    HostingStrategy,
    SingleMarketStrategy,
    MultiMarketStrategy,
    MultiRegionStrategy,
    PureSpotStrategy,
    OnDemandOnlyStrategy,
    StabilityAwareStrategy,
)
from repro.core.policies import (
    IndexTrackingStrategy,
    NoFaultToleranceStrategy,
    PortfolioBidStrategy,
    solve_portfolio_lp,
)
from repro.core.registry import (
    ArgSpec,
    StrategyInfo,
    register_strategy,
    strategy_info,
    strategy_infos,
    strategy_kinds,
)
from repro.core.scheduler import CloudScheduler, MigrationRecord, PlacementRecord, ServiceContext
from repro.core.replication import RemusPairStrategy, ReplicatedScheduler
from repro.core.elastic import DemandCurve, ElasticResult, ElasticSpotFleet
from repro.core.results import SimulationResult, AggregateResult, aggregate
from repro.core.simulation import (
    ObservedRun,
    RunSpec,
    run_simulation,
    run_simulation_observed,
    run_many,
)

__all__ = [
    "AvailabilityTracker",
    "CostLedger",
    "DowntimeInterval",
    "BiddingPolicy",
    "ReactiveBidding",
    "ProactiveBidding",
    "AdaptiveBidding",
    "HostingStrategy",
    "SingleMarketStrategy",
    "MultiMarketStrategy",
    "MultiRegionStrategy",
    "PureSpotStrategy",
    "OnDemandOnlyStrategy",
    "StabilityAwareStrategy",
    "IndexTrackingStrategy",
    "NoFaultToleranceStrategy",
    "PortfolioBidStrategy",
    "RemusPairStrategy",
    "solve_portfolio_lp",
    "ArgSpec",
    "StrategyInfo",
    "register_strategy",
    "strategy_info",
    "strategy_infos",
    "strategy_kinds",
    "CloudScheduler",
    "MigrationRecord",
    "PlacementRecord",
    "ServiceContext",
    "ReplicatedScheduler",
    "DemandCurve",
    "ElasticResult",
    "ElasticSpotFleet",
    "SimulationResult",
    "AggregateResult",
    "aggregate",
    "RunSpec",
    "ObservedRun",
    "run_simulation",
    "run_many",
    "run_simulation_observed",
]
