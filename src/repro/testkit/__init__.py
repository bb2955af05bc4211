"""Test harness for hostile-market regimes (``repro.testkit``).

The paper's four-nines claim rests on the scheduler behaving correctly
under *hostile* conditions — revocation storms, correlated price spikes,
slow checkpoints — yet calm traces dominate ordinary tests. This package
makes the hostile regimes first-class:

* :mod:`repro.testkit.faults` — :class:`FaultPlan`: a seeded or scripted
  fault schedule (revocation storms, correlated multi-market spikes,
  delayed/failed checkpoint writes, stretched disk copies and startups,
  worker-process crashes) that rides a
  :class:`~repro.core.simulation.RunSpec` across process boundaries;
* :mod:`repro.testkit.oracles` — post-run conservation checks (billing,
  availability, metrics/results agreement, lease hygiene) runnable after
  any simulation via ``run_simulation(..., verify=True)`` or the
  ``repro-verify`` CLI;
* :mod:`repro.testkit.checkpoint_process` — the τ-bound oracle: Yank's
  background checkpointer run as a live event-driven process, the
  reference :class:`~repro.vm.checkpoint.BoundedCheckpointer`'s
  arithmetic is tested against;
* :mod:`repro.testkit.conformance` — the policy conformance suite:
  :func:`conformance_check` audits any registered hosting strategy
  against the registry contract (``pytest -m conformance``);
* :mod:`repro.testkit.builders` — deterministic trace/catalog builders
  shared by the unit tests and downstream users;
* :mod:`repro.testkit.strategies` — the shared Hypothesis generator set
  (requires the ``test`` extra);
* :mod:`repro.testkit.golden` — the committed golden-scenario corpus and
  its comparison/refresh machinery (``repro-verify --all-golden`` /
  ``--update-golden``);
* :mod:`repro.testkit.cli` — the ``repro-verify`` command.

See ``docs/TESTING.md`` for the full testing guide.
"""

from repro.testkit.builders import (
    make_catalog,
    make_constant_trace,
    make_step_trace,
    single_market_catalog,
)
from repro.testkit.conformance import GRID_REGIONS, GRID_SIZES, conformance_check
from repro.testkit.faults import (
    FaultPlan,
    FaultStats,
    PriceSpike,
    kill_orchestrator_after_n_runs,
    run_kill_drill,
)
from repro.testkit.golden import (
    FLEET_SCENARIOS,
    SCENARIOS,
    GoldenFleetScenario,
    GoldenScenario,
    check_scenarios,
    default_golden_dir,
    run_fleet_scenario,
    run_scenario,
    scenario_by_name,
    update_golden,
)
from repro.testkit.oracles import (
    OracleCheck,
    OracleReport,
    check_jobs_determinism,
    check_rerun_determinism,
    check_spare_pool,
    run_verified,
    verify_fleet,
    verify_stack,
)

__all__ = [
    "FaultPlan",
    "FaultStats",
    "PriceSpike",
    "kill_orchestrator_after_n_runs",
    "run_kill_drill",
    "conformance_check",
    "GRID_REGIONS",
    "GRID_SIZES",
    "OracleCheck",
    "OracleReport",
    "verify_stack",
    "run_verified",
    "check_rerun_determinism",
    "check_jobs_determinism",
    "check_spare_pool",
    "verify_fleet",
    "GoldenScenario",
    "GoldenFleetScenario",
    "SCENARIOS",
    "FLEET_SCENARIOS",
    "scenario_by_name",
    "run_scenario",
    "run_fleet_scenario",
    "check_scenarios",
    "update_golden",
    "default_golden_dir",
    "make_step_trace",
    "make_constant_trace",
    "make_catalog",
    "single_market_catalog",
]
