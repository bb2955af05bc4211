"""The benchmark's workloads: inputs from a seed, one timed phase, checks.

Each workload has three steps. ``setup`` builds the inputs from the
workload seed and counts toward ``setup_s``. ``run`` is the timed phase.
``check`` runs after the timed phase and the pool shutdown, and returns one
digest and one pass/fail verdict per operation. An operation is one
experiment for ``paper`` and ``paper-traced`` and one run for the sweeps.

For :data:`DEFAULT_SEED` the digests must equal ``reference.json``. For
every seed, a fixed sample of the runs the workload executed is re-run on
the per-event engine outside the timed phase and must match bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.runtime as runtime
from repro.core.bidding import ProactiveBidding
from repro.experiments import common as experiments_common
from repro.experiments import runner
from repro.experiments.common import DEFAULT_SEEDS
from repro.experiments.registry import EXPERIMENTS
from repro.runtime import BatchSpec, RunSpec, StrategySpec
from repro.traces.catalog import MarketKey
from repro.units import days

from spans import Patches

__all__ = [
    "DEFAULT_SEED",
    "REFERENCE_PATH",
    "WORKLOADS",
    "Outcome",
    "Recorder",
    "make_workload",
    "result_digest",
    "whole_digest",
]

#: The seed whose outputs ``reference.json`` stores.
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
WORKLOADS = ("paper", "sweep", "sweep-jobs2-ledger", "paper-traced")
TRACED_IDS = ("fig6", "fig7", "fig8", "fig11", "tab3", "sec62")
#: Runs re-executed on the per-event engine after each timed phase.
EVENT_SAMPLE = 16

REGION = "us-east-1a"
_FOOTER = re.compile(r"^\[(\S+) completed in [0-9.]+s \| .*\]$")
_TRACE_LINE = re.compile(r"^\[(\S+) trace: (\d+) event\(s\) -> .*\]$")


def result_digest(result: Any) -> str:
    """Short digest of one result's exact repr (floats repr round-trip)."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:6]


def whole_digest(outcome: "Outcome") -> str:
    """Full digest of every result of every batch, in order."""
    h = hashlib.sha256()
    for batch in outcome.batches:
        for result in batch.result.results:
            h.update(repr(result).encode())
    return h.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def experiment_seeds(seed: int) -> Tuple[int, ...]:
    """The five trace-sample seeds of the experiment workloads."""
    if seed == DEFAULT_SEED:
        return tuple(DEFAULT_SEEDS)
    return tuple(random.Random(seed).sample(range(1, 100_000), len(DEFAULT_SEEDS)))


def bid_multipliers(seed: int, n: int) -> np.ndarray:
    """``n`` proactive bid multipliers from 1.5 to 9.0.

    Any seed but the default shifts the grid by a random fraction of one
    step. The catalogs stay fixed, so the sweeps' work is comparable
    across seeds while the bids, and so the runs and their results, differ.
    """
    grid = np.linspace(1.5, 9.0, n)
    if seed == DEFAULT_SEED:
        return grid
    return grid + random.Random(seed).random() * (grid[1] - grid[0])


def frontier_specs(catalogs: int, multipliers: Sequence[float], horizon_days: float = 30):
    """The frontier sweep family on one market, for catalog seeds
    ``0..catalogs-1``: multipliers x 5 reverse thresholds x {single, pure-spot}."""
    key = MarketKey(REGION, "small")
    strategies = (StrategySpec.single(key), StrategySpec.pure_spot(key))
    return [
        RunSpec(
            strategy=strategy,
            bidding=ProactiveBidding(k=float(k), reverse_threshold_frac=frac),
            seed=seed,
            horizon_s=days(horizon_days),
            regions=(REGION,),
            sizes=("small",),
            label=f"s{seed}/k={k:.2f}/f={frac}",
        )
        for seed in range(catalogs)
        for k in multipliers
        for frac in (0.80, 0.85, 0.90, 0.95, 0.99)
        for strategy in strategies
    ]


@dataclass
class Batch:
    experiment: Optional[str]
    specs: Tuple[RunSpec, ...]
    result: Any  #: the :class:`~repro.runtime.BatchResult`


@dataclass
class Outcome:
    """What one timed phase produced."""

    batches: List[Batch] = field(default_factory=list)
    reports: Dict[str, Any] = field(default_factory=dict)
    stdout: str = ""
    error: Optional[str] = None


class Recorder:
    """Keeps every batch and experiment report of the timed phase.

    ``run_batch`` is replaced where callers look it up (the runtime
    package, the executor and the experiment helpers), and
    ``run_experiment`` where the runner looks it up. The wrappers only
    keep references; the checks and the per-layer counts read them later.
    """

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.current: Optional[str] = None
        self._patches = Patches()

    def install(self) -> None:
        for owner in (runtime, runtime.executor, experiments_common):
            self._patches.replace(owner, "run_batch", self._wrap_batch)
        self._patches.replace(runner, "run_experiment", self._wrap_experiment)

    def restore(self) -> None:
        self._patches.restore()

    def _wrap_batch(self, run_batch):
        def recorded(runs, *args, **kwargs):
            specs = tuple(runs.runs if isinstance(runs, BatchSpec) else runs)
            result = run_batch(specs, *args, **kwargs)
            self.outcome.batches.append(Batch(self.current, specs, result))
            return result

        return recorded

    def _wrap_experiment(self, run_experiment):
        def recorded(eid, *args, **kwargs):
            self.current = eid
            try:
                report = run_experiment(eid, *args, **kwargs)
            finally:
                self.current = None
            self.outcome.reports[eid] = report
            return report

        return recorded


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """Base: subclasses define ``setup``, ``run``, ``operations``, ``digests``."""

    name = ""
    jobs = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def operations(self) -> List[str]:
        raise NotImplementedError

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        """Digest of each operation that produced output."""
        raise NotImplementedError

    def files(self) -> Dict[str, Path]:
        """Files the timed phase wrote, by role (for per-layer counts)."""
        return {}

    def cleanup(self) -> None:
        """Remove what the timed phase wrote."""

    # ------------------------------------------------------------ checking
    def event_sample_failures(self, outcome: Outcome) -> Dict[str, bool]:
        """Re-run a fixed sample of runs on the per-event engine.

        Returns ``{operation: mismatch}`` for the operations the sample
        touched; an operation is a run index for the sweeps and an
        experiment id for the experiment workloads.
        """
        flat = [
            (self._op_of(batch, i), spec, result)
            for batch in outcome.batches
            for i, (spec, result) in enumerate(zip(batch.specs, batch.result.results))
        ]
        if not flat:
            return {}
        stride = max(1, len(flat) // EVENT_SAMPLE)
        sample = flat[::stride][:EVENT_SAMPLE]
        rerun = runtime.run_batch([spec for _, spec, _ in sample], engine="event")
        verdict: Dict[str, bool] = {}
        for (op, _, result), again in zip(sample, rerun.results):
            verdict[op] = verdict.get(op, False) or repr(result) != repr(again)
        return verdict

    def _op_of(self, batch: Batch, index: int) -> str:
        return str(batch.experiment)

    def reference_entry(self, digests: Dict[str, str], outcome: Outcome) -> Dict[str, Any]:
        """This run's outputs in the form ``reference.json`` keeps them."""
        raise NotImplementedError

    def reference_failures(self, digests: Dict[str, str], outcome: Outcome) -> List[str]:
        """Operations whose output differs from ``reference.json``."""
        raise NotImplementedError

    def check(self, outcome: Outcome, compare: bool = True) -> Tuple[Dict[str, str], List[str]]:
        """``(digest per operation, failed operations)``.

        ``compare`` checks against ``reference.json`` when the workload
        runs the default seed at full size.
        """
        digests = self.digests(outcome)
        mismatched = self.event_sample_failures(outcome)
        failed = {op for op in self.operations() if op not in digests or mismatched.get(op)}
        if compare and self.seed == DEFAULT_SEED and not self.tiny:
            failed.update(self.reference_failures(digests, outcome))
        return digests, sorted(failed)


class Experiments(Workload):
    """``repro-experiments`` driven in-process through its ``main``."""

    def ids(self) -> List[str]:
        raise NotImplementedError

    def argv(self) -> List[str]:
        seeds = experiment_seeds(self.seed)
        if self.tiny:
            return list(self.ids()) + ["--seeds", str(seeds[0]), "--days", "7"]
        return list(self.ids()) + ["--seeds", *map(str, seeds)]

    def setup(self) -> None:
        self._argv = self.argv()

    def operations(self) -> List[str]:
        return list(self.ids())

    def run(self, outcome: Outcome) -> None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # Exit code 1 is expected: ext-fleet's claim deviates. The
                # deviation is counted from the reports, not the code.
                runner.main(self._argv)
        except Exception as exc:  # the workload counts it as failed operations
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.stdout = out.getvalue()

    def report_texts(self, stdout: str) -> Dict[str, str]:
        """Each experiment's printed report, footer lines removed."""
        texts: Dict[str, str] = {}
        chunk: List[str] = []
        for line in stdout.splitlines():
            footer = _FOOTER.match(line)
            if footer:
                texts[footer.group(1)] = "\n".join(chunk).strip("\n")
                chunk = []
            elif not _TRACE_LINE.match(line):
                chunk.append(line)
        return texts

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        return {eid: _sha(text) for eid, text in self.report_texts(outcome.stdout).items()}

    @staticmethod
    def deviations(outcome: Outcome) -> Dict[str, int]:
        """Claims each experiment's report marks DEVIATES (nonzero only)."""
        counts = {
            eid: sum(c.verdict() == "DEVIATES" for c in report.comparisons)
            for eid, report in outcome.reports.items()
        }
        return {eid: n for eid, n in counts.items() if n}

    def reference_entry(self, digests: Dict[str, str], outcome: Outcome) -> Dict[str, Any]:
        deviations = self.deviations(outcome)
        return {
            "digests": digests,
            "claims_deviated": deviations,
            "claims_deviated_total": sum(deviations.values()),
        }

    def reference_failures(self, digests: Dict[str, str], outcome: Outcome) -> List[str]:
        """Experiments whose report (or trace) or deviating-claim count
        differs from the reference."""
        reference = load_reference()[self.name]
        expected, deviations = reference["digests"], self.deviations(outcome)
        return [
            eid for eid in self.operations()
            if expected.get(eid) != digests.get(eid)
            or reference["claims_deviated"].get(eid, 0) != deviations.get(eid, 0)
        ]


class Paper(Experiments):
    name = "paper"

    def ids(self) -> List[str]:
        return ["fig6", "ext-fleet"] if self.tiny else sorted(EXPERIMENTS)


class PaperTraced(Experiments):
    name = "paper-traced"

    def ids(self) -> List[str]:
        return ["tab3"] if self.tiny else list(TRACED_IDS)

    def argv(self) -> List[str]:
        return super().argv() + ["--trace", str(self.files()["trace"])]

    def files(self) -> Dict[str, Path]:
        return {"trace": self.workdir / "trace.jsonl"}

    def trace_counts(self, stdout: str) -> List[Tuple[str, int]]:
        return [
            (m.group(1), int(m.group(2)))
            for m in map(_TRACE_LINE.match, stdout.splitlines())
            if m
        ]

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        """Report digest plus the digest of the experiment's JSONL lines."""
        reports = super().digests(outcome)
        path = self.files()["trace"]
        if not path.exists():
            return {}
        out: Dict[str, str] = {}
        with path.open("rb") as fp:
            for eid, n in self.trace_counts(outcome.stdout):
                lines = hashlib.sha256()
                for _ in range(n):
                    lines.update(fp.readline())
                if eid in reports:
                    out[eid] = reports[eid] + lines.hexdigest()[:16]
            if fp.read(1):
                return {}  # more lines than the experiments reported
        return out

    def cleanup(self) -> None:
        self.files()["trace"].unlink(missing_ok=True)


class Sweep(Workload):
    """The frontier sweep family as one ``run_batch``."""

    name = "sweep"
    catalogs = 20
    multipliers = 100

    def setup(self) -> None:
        n, k = (2, 4) if self.tiny else (self.catalogs, self.multipliers)
        self.specs = frontier_specs(n, bid_multipliers(self.seed, k))

    def batch_kwargs(self) -> Dict[str, Any]:
        return {}

    def run(self, outcome: Outcome) -> None:
        try:
            runtime.run_batch(self.specs, jobs=self.jobs, **self.batch_kwargs())
        except Exception as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"

    def operations(self) -> List[str]:
        return [str(i) for i in range(len(self.specs))]

    def _op_of(self, batch: Batch, index: int) -> str:
        return str(index)

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        if len(outcome.batches) != 1:
            return {}
        results = outcome.batches[0].result.results
        return {str(i): result_digest(r) for i, r in enumerate(results)}

    def reference_entry(self, digests: Dict[str, str], outcome: Outcome) -> Dict[str, Any]:
        ops = self.operations()
        return {"runs": "".join(digests.get(op, "") for op in ops), "sha256": whole_digest(outcome)}

    def reference_failures(self, digests: Dict[str, str], outcome: Outcome) -> List[str]:
        """Runs whose digest differs; every run if the ordered whole differs.

        The reference keeps a short digest per run, concatenated, plus a
        full digest of all runs that catches a short-digest collision.
        """
        reference = load_reference()[self.name]
        width = len(result_digest(None))
        runs = reference["runs"]
        failed = [
            op for op in self.operations()
            if digests.get(op) != runs[int(op) * width:(int(op) + 1) * width]
        ]
        if not failed and whole_digest(outcome) != reference["sha256"]:
            return self.operations()
        return failed


class SweepJobs2Ledger(Sweep):
    """The same family at ``jobs=2``, journaled to a fresh run ledger."""

    name = "sweep-jobs2-ledger"
    catalogs = 2
    multipliers = 50
    jobs = 2

    def setup(self) -> None:
        super().setup()
        if self.tiny:
            self.specs = self.specs[:20]
        # Start the worker pool: a two-run batch on a one-day catalog that
        # no workload run shares.
        warm = frontier_specs(1, [1.5], horizon_days=1)[:2]
        runtime.run_batch(warm, jobs=self.jobs)
        self.cleanup()

    def files(self) -> Dict[str, Path]:
        return {"ledger": self.workdir / "ledger"}

    def batch_kwargs(self) -> Dict[str, Any]:
        # The trailing separator makes the ledger a directory of per-batch files.
        return {"ledger": f"{self.files()['ledger']}/"}

    def cleanup(self) -> None:
        shutil.rmtree(self.files()["ledger"], ignore_errors=True)


_CLASSES = {cls.name: cls for cls in (Paper, Sweep, SweepJobs2Ledger, PaperTraced)}


def make_workload(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    return _CLASSES[name](seed, workdir, tiny)
