"""Shared configuration and helpers for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Sequence

from repro.core.bidding import BiddingPolicy, ProactiveBidding
from repro.core.results import AggregateResult, aggregate
from repro.errors import ConfigurationError
from repro.runtime import BatchResult, ExecutionOptions, RunSpec, StrategySpec, run_batch
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
    tests); benchmarks run the full configuration. ``execution`` sets how
    each driver batch runs (worker count, engine, run ledger, resume);
    results are identical at any setting. A driver emits many batches, so
    ``execution.ledger`` is always a directory holding one ledger file per
    batch (named by batch fingerprint).

    A pass journals into a fresh directory, or resumes one: a config
    whose ledger directory already holds a ``batch-*.jsonl`` raises
    :class:`~repro.errors.ConfigurationError` at construction unless
    ``resume`` is set. Every batch then runs with ``resume=True``, so a
    batch already journaled there replays instead of re-executing. That
    covers both a batch an earlier pass journaled (an interrupted
    ``repro-experiments`` invocation picks up where it died) and one this
    pass repeats (``sec62`` resubmits four of ``fig11``'s batches).
    """

    seeds: Sequence[int] = DEFAULT_SEEDS
    horizon_s: float = days(30)
    fast: bool = False
    execution: ExecutionOptions = ExecutionOptions()

    def __post_init__(self) -> None:
        ledger = self.execution.ledger
        if ledger is None or not Path(ledger).exists():
            return
        if not Path(ledger).is_dir():
            raise ConfigurationError(
                f"ledger {ledger} is a file; experiments journal one file per "
                "batch, so the ledger must be a directory"
            )
        if not self.execution.resume and any(Path(ledger).glob("batch-*.jsonl")):
            raise ConfigurationError(
                f"ledger directory {ledger} already journals batches; pass "
                "--resume to replay them, or journal into a fresh directory"
            )

    def effective_seeds(self) -> List[int]:
        return list(self.seeds[:2] if self.fast else self.seeds)

    def effective_horizon(self) -> float:
        return days(10) if self.fast else self.horizon_s

    def effective_ledger(self) -> Path | None:
        """The batch-ledger directory, created on first use (or ``None``)."""
        if self.execution.ledger is None:
            return None
        path = Path(self.execution.ledger)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def with_(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)

    def run_batch(self, specs: Sequence[RunSpec]) -> BatchResult:
        """Run one driver batch with this config's ``execution`` options.

        Looks ``run_batch`` up on this module at call time, so a wrapper
        installed here (``perfbench``'s recorder) sees every driver batch.
        With a ledger every batch resumes: the directory was fresh or
        resumed at construction, so a journal in it was written by this
        pass or by the one being resumed.
        """
        e = self.execution
        ledger = self.effective_ledger()
        return run_batch(
            specs, jobs=e.jobs, ledger=ledger, resume=ledger is not None, engine=e.engine,
        )


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
    ``cfg.execution.jobs`` workers run seeds concurrently.
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
    return aggregate(list(cfg.run_batch(specs).results), label=label or None)
