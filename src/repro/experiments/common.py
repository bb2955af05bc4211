"""Shared configuration and helpers for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Sequence

from repro.core.bidding import BiddingPolicy, ProactiveBidding
from repro.core.results import AggregateResult, aggregate
from repro.errors import ConfigurationError
from repro.runtime import ENGINE_KINDS, RunSpec, StrategySpec, run_batch
from repro.traces.calibration import REGIONS, SIZES
from repro.units import days
from repro.vm.mechanisms import Mechanism, MechanismParams, TYPICAL_PARAMS

__all__ = ["ExperimentConfig", "simulate", "DEFAULT_SEEDS"]

#: Seeds used by default — "a different sample for each simulation run".
DEFAULT_SEEDS: tuple = (11, 23, 37, 41, 53)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    ``fast`` shrinks seeds/horizon for quick smoke runs (used by the unit
    tests); benchmarks run the full configuration. ``jobs`` fans each
    driver's seed×variant batches across worker processes — results are
    identical to the serial default, only faster. ``ledger_dir`` journals
    every batch a driver emits into per-batch ledger files under that
    directory (named by batch fingerprint); with ``resume`` set, batches
    already journaled there replay instead of re-executing, so an
    interrupted ``repro-experiments`` invocation picks up where it died.
    ``engine`` selects the execution engine per batch: ``"auto"`` (the
    default) routes eligible runs through the vectorized boundary-scan
    engine and the rest per-event; results are bit-identical either way.
    """

    seeds: Sequence[int] = DEFAULT_SEEDS
    horizon_s: float = days(30)
    fast: bool = False
    jobs: int = 1
    ledger_dir: str | None = None
    resume: bool = False
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if self.resume and self.ledger_dir is None:
            raise ConfigurationError("resume needs a ledger directory")
        if self.engine not in ENGINE_KINDS:
            raise ConfigurationError(
                f"unknown engine {self.engine!r} "
                f"(choices: {', '.join(ENGINE_KINDS)})"
            )

    def effective_seeds(self) -> List[int]:
        return list(self.seeds[:2] if self.fast else self.seeds)

    def effective_horizon(self) -> float:
        return days(10) if self.fast else self.horizon_s

    def effective_ledger(self) -> Path | None:
        """The batch-ledger directory, created on first use (or ``None``)."""
        if self.ledger_dir is None:
            return None
        path = Path(self.ledger_dir)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def with_(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


def simulate(
    cfg: ExperimentConfig,
    strategy: StrategySpec,
    *,
    bidding: BiddingPolicy | None = None,
    mechanism: Mechanism = Mechanism.CKPT_LR_LIVE,
    params: MechanismParams = TYPICAL_PARAMS,
    regions: Sequence[str] = REGIONS,
    sizes: Sequence[str] = SIZES,
    label: str = "",
) -> AggregateResult:
    """Run one policy over the experiment's seeds and aggregate.

    Submits the seeds as one :func:`repro.runtime.run_batch` batch: trace
    catalogs are served from the runtime cache (so several policies
    evaluated on one seed compare on the *same* price sample), and
    ``cfg.jobs`` workers run seeds concurrently.
    """
    base = RunSpec(
        strategy=strategy,
        bidding=bidding or ProactiveBidding(),
        mechanism=mechanism,
        params=params,
        horizon_s=cfg.effective_horizon(),
        regions=tuple(regions),
        sizes=tuple(sizes),
        label=label,
    )
    specs = [base.with_(seed=s) for s in cfg.effective_seeds()]
    batch = run_batch(
        specs, jobs=cfg.jobs, ledger=cfg.effective_ledger(), resume=cfg.resume,
        engine=cfg.engine,
    )
    return aggregate(list(batch.results), label=label or None)
