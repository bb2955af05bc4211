"""The execution options every CLI and driver shares.

:func:`add_execution_options` declares the six shared flags once;
:class:`ExecutionOptions` carries the four that decide how batches run
and is the one copy of their rules. No option changes a result.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.errors import ConfigurationError
from repro.runtime.vector import ENGINE_KINDS

__all__ = ["ExecutionOptions", "add_execution_options", "print_observation"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How batches execute: worker processes, engine, run ledger, resume.

    Each breach of a rule raises :class:`~repro.errors.ConfigurationError`.
    """

    jobs: int = 1
    engine: str = "auto"
    ledger: Union[str, Path, None] = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.engine not in ENGINE_KINDS:
            raise ConfigurationError(
                f"unknown engine {self.engine!r} (choices: {', '.join(ENGINE_KINDS)})"
            )
        if self.resume and self.ledger is None:
            raise ConfigurationError("resume needs a ledger to replay from")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExecutionOptions":
        return cls(jobs=args.jobs, engine=args.engine, ledger=args.ledger, resume=args.resume)


def add_execution_options(parser: argparse.ArgumentParser) -> None:
    """Declare ``--jobs``, ``--engine``, ``--ledger``, ``--resume``,
    ``--trace`` and ``--metrics`` on ``parser``, in one group."""
    g = parser.add_argument_group("execution options")
    g.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default 1 = serial; the output is "
                   "byte-identical at any N)")
    g.add_argument("--engine", choices=ENGINE_KINDS, default="auto",
                   help="'auto' (default) vectorizes and dedupes eligible runs, "
                   "'event' forces the per-event engine; the output is "
                   "byte-identical either way")
    g.add_argument("--ledger", metavar="PATH", default=None,
                   help="journal every completed run to a crash-safe run ledger "
                   "at PATH; an existing directory, or a PATH spelled with a "
                   "trailing separator, holds one file per batch "
                   "(repro-experiments always takes PATH as a directory)")
    g.add_argument("--resume", action="store_true",
                   help="with --ledger: replay the journaled runs and execute "
                   "only the remainder (byte-identical output)")
    g.add_argument("--trace", metavar="PATH", default=None,
                   help="write a JSONL decision trace of every run to PATH "
                   "(inspect with 'repro-trace summarize PATH')")
    g.add_argument("--metrics", action="store_true",
                   help="print the merged run metrics after the report")


def print_observation(scope, args: argparse.Namespace) -> None:
    """``--trace`` and ``--metrics`` for a CLI whose runs the
    :func:`~repro.obs.observe` ``scope`` watched."""
    if args.trace is not None:
        n = scope.write_jsonl(args.trace)
        print(f"\ntrace: {n} event(s) written to {args.trace}")
    if args.metrics:
        print("\nrun metrics (merged over all runs):")
        print(scope.metrics_summary())
