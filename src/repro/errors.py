"""Exception hierarchy for the spot-hosting reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to discriminate between configuration problems, market-semantics violations,
and simulation-engine faults. :func:`cli_main` is that clause for every
command-line entry point.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SchedulingError",
    "MarketError",
    "BidRejectedError",
    "BidTooHighError",
    "InstanceNotHeldError",
    "TraceError",
    "TraceFormatError",
    "CalibrationError",
    "MigrationError",
    "CheckpointBoundError",
    "WorkloadError",
    "InvariantViolation",
    "WorkerCrashError",
    "LedgerError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event engine was driven incorrectly.

    Examples: scheduling an event in the past, running a finished engine,
    or re-activating a cancelled process.
    """


class SchedulingError(ReproError):
    """The cloud scheduler reached an inconsistent state.

    This indicates a bug in a hosting strategy (e.g. starting a migration
    while one is already in flight) rather than a user error.
    """


class MarketError(ReproError):
    """Base class for cloud-market semantics violations."""


class BidRejectedError(MarketError):
    """A spot request was rejected because the bid is below the current price."""

    def __init__(self, bid: float, current_price: float, market: str = "") -> None:
        self.bid = bid
        self.current_price = current_price
        self.market = market
        super().__init__(
            f"bid ${bid:.4f}/hr below current spot price "
            f"${current_price:.4f}/hr{f' in {market}' if market else ''}"
        )


class BidTooHighError(MarketError):
    """A bid exceeded the provider's bid cap (4x on-demand on EC2 circa 2015)."""

    def __init__(self, bid: float, cap: float, market: str = "") -> None:
        self.bid = bid
        self.cap = cap
        self.market = market
        super().__init__(
            f"bid ${bid:.4f}/hr exceeds provider cap ${cap:.4f}/hr"
            f"{f' in {market}' if market else ''}"
        )


class InstanceNotHeldError(MarketError):
    """An operation referenced an instance the caller does not hold."""


class TraceError(ReproError):
    """Base class for spot-price trace problems."""


class TraceFormatError(TraceError):
    """A trace file or array pair violated the step-function invariants."""


class CalibrationError(TraceError):
    """A market-calibration parameter set is out of its valid range."""


class MigrationError(ReproError):
    """A VM migration could not be modelled (bad sizes, bandwidths, etc.)."""


class CheckpointBoundError(MigrationError):
    """Yank-style bounded checkpointing cannot satisfy the requested bound.

    Raised when the bound tau is too small for even a single dirty page to be
    flushed within it, i.e. the background checkpointer can never keep up.
    """


class WorkloadError(ReproError):
    """A workload/queueing-model parameterisation is infeasible."""


class InvariantViolation(ReproError):
    """A post-run invariant oracle found a conservation-law violation.

    Raised by :mod:`repro.testkit.oracles` when a completed simulation's
    books do not balance — e.g. billed cost differs from the sum of
    start-of-hour charges, or availability plus blackout time does not
    cover the horizon. Carries the individual check failures in
    ``failures`` when raised from a full report.
    """

    def __init__(self, message: str, failures: "list[str] | None" = None) -> None:
        self.failures = list(failures or [])
        super().__init__(message)


class WorkerCrashError(ReproError):
    """A batch-executor worker crashed while executing a run.

    Raised organically on worker failure and injected by
    :class:`repro.testkit.faults.FaultPlan` crash schedules to exercise
    the executor's retry path.
    """


class LedgerError(ReproError):
    """A batch run ledger cannot be used for the requested resume.

    Raised when a ledger's batch-header fingerprint does not match the
    batch being resumed (the specs, catalogs, or package version changed
    since the ledger was written), or when the ledger is structurally
    invalid beyond the tolerated torn trailing record.
    """


def cli_main(main: Callable[..., int]) -> Callable[..., int]:
    """Decorate a command-line ``main`` so a :class:`ReproError` becomes
    one ``error: ...`` line on stderr and exit code 2.

    The package raises its own exceptions for input it cannot use: a bad
    option value, a market the archive lacks, a ledger that already
    journals the batch. Any other exception is a bug and keeps its
    traceback. The decorated function is still a plain ``main(argv)``
    returning an ``int``.
    """

    @functools.wraps(main)
    def wrapper(*args, **kwargs) -> int:
        try:
            return main(*args, **kwargs)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapper
