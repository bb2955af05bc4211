"""``repro-verify`` — run invariant oracles and the golden-scenario corpus.

Modes
-----
* default / ``--all-golden``: run every committed golden scenario (with
  the invariant oracles) and diff against ``tests/golden/expected/``;
* ``--scenario NAME`` (repeatable): check a subset;
* ``--update-golden``: re-run scenarios and rewrite the expected JSON —
  review the diff like any other code change;
* ``--list``: print the corpus;
* ``--storm``: run a seeded revocation-storm :class:`FaultPlan` through
  the full battery — invariant oracles, rerun determinism, and jobs=1 vs
  ``--jobs`` byte-identity (the acceptance gate for the fault layer).

Exit status is 0 when everything is green, 1 otherwise, and 2 for input
it cannot use (an unknown scenario name).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import cli_main
from repro.testkit.golden import (
    FLEET_SCENARIOS,
    SCENARIOS,
    check_scenarios,
    update_golden,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-verify",
        description="Verify simulation invariants and the golden-scenario corpus.",
    )
    p.add_argument(
        "--all-golden",
        action="store_true",
        help="check every golden scenario (the default action)",
    )
    p.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="check only the named scenario (repeatable)",
    )
    p.add_argument(
        "--update-golden",
        action="store_true",
        help="re-run scenarios and rewrite their expected reports",
    )
    p.add_argument("--list", action="store_true", help="list the golden corpus and exit")
    p.add_argument(
        "--golden-dir",
        type=Path,
        default=None,
        help="expected-report directory (default: tests/golden/expected)",
    )
    p.add_argument(
        "--storm",
        action="store_true",
        help="run the seeded revocation-storm determinism battery",
    )
    p.add_argument("--seed", type=int, default=0, help="storm battery base seed")
    p.add_argument("--jobs", type=int, default=4, help="worker count for the jobs check")
    p.add_argument("--days", type=float, default=7.0, help="storm battery horizon in days")
    return p


def _cmd_list() -> int:
    corpus = [*SCENARIOS, *FLEET_SCENARIOS]
    width = max(len(s.name) for s in corpus)
    for s in corpus:
        print(f"  {s.name:<{width}}  {s.description}")
    return 0


def _cmd_golden(names: Optional[List[str]], golden_dir: Optional[Path], update: bool) -> int:
    if update:
        written = update_golden(names, golden_dir)
        for name, path in written.items():
            print(f"updated {name}: {path}")
        print(f"{len(written)} expected report(s) written")
        return 0
    diffs = check_scenarios(names, golden_dir)
    failed = 0
    for name, problems in diffs.items():
        if problems:
            failed += 1
            print(f"FAIL {name}")
            for line in problems:
                print(f"    {line}")
        else:
            print(f"ok   {name}")
    total = len(diffs)
    print(f"{total - failed}/{total} golden scenario(s) match")
    return 0 if failed == 0 else 1


def _cmd_storm(seed: int, jobs: int, horizon_days: float) -> int:
    from repro.core.simulation import RunSpec
    from repro.runtime.spec import StrategySpec
    from repro.testkit.faults import FaultPlan
    from repro.testkit.oracles import (
        check_jobs_determinism,
        check_rerun_determinism,
        run_verified,
    )
    from repro.traces.catalog import MarketKey
    from repro.units import days

    horizon = days(horizon_days)
    plan = FaultPlan.revocation_storm(
        seed + 1000,
        horizon,
        n_spikes=6,
        duration_s=1800.0,
        checkpoint_delay_s=30.0,
        checkpoint_failure_rate=0.2,
        disk_copy_factor=1.5,
    )
    spec = RunSpec(
        strategy=StrategySpec.single(MarketKey("us-east-1a", "small")),
        seed=seed,
        horizon_s=horizon,
        regions=("us-east-1a",),
        sizes=("small",),
        faults=plan,
        label="verify/storm",
    )
    observed, report = run_verified(spec)
    check_rerun_determinism(spec, report)
    check_jobs_determinism(spec, seeds=[seed, seed + 1, seed + 2, seed + 3], jobs=jobs, report=report)
    print(report.summary())
    r = observed.result
    print(
        f"storm run: cost ${r.total_cost:.2f} "
        f"({r.normalized_cost_percent:.1f}% of on-demand), "
        f"unavailability {r.unavailability_percent:.4f}%, "
        f"{r.forced_migrations} forced / {r.planned_migrations} planned / "
        f"{r.reverse_migrations} reverse migrations"
    )
    if report.passed:
        print("all invariant oracles green")
        return 0
    print(f"{len(report.failures)} oracle(s) FAILED", file=sys.stderr)
    return 1


@cli_main
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        return _cmd_list()
    if args.storm:
        return _cmd_storm(args.seed, args.jobs, args.days)
    return _cmd_golden(args.scenario, args.golden_dir, args.update_golden)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
