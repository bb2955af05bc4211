#!/usr/bin/env python
"""CI smoke drill for crash-safe batch resume.

Runs the acceptance scenario from docs/RESUME.md end to end, on a
bid sweep whose clamped bids clone (2 catalogs x 8 policy variants):

1. Launch a child orchestrator that journals the 16-run batch to a
   ledger and SIGKILLs itself (via ``kill_orchestrator_after_n_runs``)
   once three runs have completed.
2. Resume the batch from the surviving ledger, and demand that the
   ledger then holds every slot, clone records included.
3. Run the same batch uninterrupted, with no ledger, at ``--jobs`` and
   at ``jobs=1``: the reports must be byte-identical and both runs must
   clone the same number of runs.

Exits nonzero (with a diagnostic) on any deviation.  The ledger file is
left at ``--ledger`` so CI can upload it as an artifact on failure.

Usage::

    python tools/resume_smoke.py [--jobs N] [--ledger PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.core.bidding import ProactiveBidding  # noqa: E402
from repro.runtime import RunLedger, RunSpec, StrategySpec, run_batch  # noqa: E402
from repro.traces.catalog import MarketKey  # noqa: E402
from repro.units import days  # noqa: E402

SEEDS = (1, 2)
KILL_AFTER = 3

_CHILD = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, sys.argv[4])
    from repro.runtime import run_batch
    from repro.testkit.faults import kill_orchestrator_after_n_runs
    from resume_smoke import specs

    ledger, jobs, kill_after = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    run_batch(specs(), jobs=jobs, ledger=ledger,
              progress=kill_orchestrator_after_n_runs(kill_after))
    raise SystemExit(99)  # unreachable: the hook SIGKILLs us first
    """
)


def specs() -> list[RunSpec]:
    """Bid multipliers >= 4 clamp at the provider's bid cap, so their
    runs clone one executed representative per catalog."""
    return [
        RunSpec(
            strategy=StrategySpec.single(MarketKey("us-east-1a", "small")),
            bidding=ProactiveBidding(k=k, reverse_threshold_frac=frac),
            seed=s,
            horizon_s=days(2),
            regions=("us-east-1a",),
            sizes=("small",),
            label=f"s{s}/k={k}/f={frac}",
        )
        for s in SEEDS
        for k in (2.0, 5.0, 7.0, 9.0)
        for frac in (0.8, 0.95)
    ]


def _report_bytes(results) -> bytes:
    return json.dumps(
        [dataclasses.asdict(r) for r in results], sort_keys=True
    ).encode()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--ledger", type=Path, default=Path("resume-smoke.jsonl"))
    args = parser.parse_args(argv)

    args.ledger.parent.mkdir(parents=True, exist_ok=True)
    if args.ledger.exists():
        args.ledger.unlink()

    runs = specs()
    print(f"[resume-smoke] killing orchestrator after {KILL_AFTER} of "
          f"{len(runs)} runs (jobs={args.jobs})")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    # No output pipes: orphaned pool workers would hold them open past the
    # SIGKILL and stall the wait.
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(args.ledger), str(args.jobs),
         str(KILL_AFTER), str(Path(__file__).resolve().parent)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=600,
    )
    if proc.returncode != -signal.SIGKILL:
        print(f"[resume-smoke] FAIL: child exited {proc.returncode}, "
              f"expected SIGKILL ({-signal.SIGKILL})")
        return 1
    if not args.ledger.exists():
        print("[resume-smoke] FAIL: no ledger file survived the kill")
        return 1
    journaled = len(RunLedger.load(args.ledger)[1].records)
    print(f"[resume-smoke] child SIGKILLed; ledger holds {journaled} "
          f"completed run(s)")
    if journaled < KILL_AFTER:
        print(f"[resume-smoke] FAIL: expected >= {KILL_AFTER} journaled runs")
        return 1

    print("[resume-smoke] resuming from the ledger")
    resumed = run_batch(runs, ledger=args.ledger, resume=True, jobs=args.jobs)
    if not resumed.telemetry.resumed:
        print("[resume-smoke] FAIL: resumed batch not flagged as resumed")
        return 1
    if resumed.telemetry.replayed_runs != journaled:
        print(f"[resume-smoke] FAIL: replayed_runs="
              f"{resumed.telemetry.replayed_runs}, expected {journaled}")
        return 1
    records = RunLedger.load(args.ledger)[1].records
    if sorted(records) != list(range(len(runs))):
        print(f"[resume-smoke] FAIL: ledger holds slots {sorted(records)}, "
              f"expected all {len(runs)}")
        return 1
    clones = sum(1 for r in records.values() if r.telemetry.deduped)
    if not clones:
        print("[resume-smoke] FAIL: the ledger holds no clone records")
        return 1

    print("[resume-smoke] running uninterrupted baselines")
    baseline = run_batch(runs, jobs=args.jobs)
    serial = run_batch(runs, jobs=1)
    if baseline.telemetry.deduped_runs != serial.telemetry.deduped_runs:
        print(f"[resume-smoke] FAIL: jobs={args.jobs} cloned "
              f"{baseline.telemetry.deduped_runs} runs, jobs=1 cloned "
              f"{serial.telemetry.deduped_runs}")
        return 1
    reports = {_report_bytes(b.results) for b in (resumed, baseline, serial)}
    if len(reports) != 1:
        print("[resume-smoke] FAIL: resumed, uninterrupted and jobs=1 "
              "reports differ")
        return 1

    print(f"[resume-smoke] OK: byte-identical report, "
          f"{resumed.telemetry.replayed_runs} replayed + "
          f"{len(runs) - journaled} resumed run(s), {clones} clone records, "
          f"{serial.telemetry.deduped_runs} clones at both jobs values")
    args.ledger.unlink()  # success: nothing to upload
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
