"""Unit tests for the invariant oracles: green on honest runs, red when the
books are cooked."""

import pytest

from repro.core.accounting import CostEntry
from repro.core.simulation import (
    RunSpec,
    build_stack,
    run_simulation,
    summarize_stack,
)
from repro.errors import InvariantViolation
from repro.runtime.spec import StrategySpec
from repro.testkit.faults import FaultPlan
from repro.testkit.oracles import (
    OracleReport,
    check_jobs_determinism,
    check_rerun_determinism,
    run_verified,
    verify_stack,
)
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def _config(**kw):
    base = dict(
        strategy=StrategySpec.single(KEY),
        seed=3,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
    )
    base.update(kw)
    return RunSpec(**base)


def _completed_stack(**kw):
    stack = build_stack(_config(**kw))
    stack.scheduler.run()
    return stack, summarize_stack(stack)


def test_honest_run_passes_all_oracles():
    stack, result = _completed_stack()
    report = verify_stack(stack, result)
    assert report.passed, report.summary()
    assert len(report.checks) >= 10


def test_faulted_run_passes_all_oracles():
    stack, result = _completed_stack(
        faults=FaultPlan.revocation_storm(7, days(3), n_spikes=3, duration_s=1200.0)
    )
    report = verify_stack(stack, result)
    assert report.passed, report.summary()


def test_report_raise_on_failure():
    report = OracleReport()
    report.add("fine", True)
    report.raise_on_failure()  # no-op while green
    report.add("broken", False, "books don't balance")
    with pytest.raises(InvariantViolation) as exc:
        report.raise_on_failure()
    assert "broken" in str(exc.value)
    assert exc.value.failures


def test_cooked_ledger_trips_billing_oracle():
    stack, result = _completed_stack()
    stack.scheduler.ledger.entries.append(
        CostEntry(time=0.0, amount=1.0, rate=99.0, kind="spot", market=str(KEY))
    )
    report = verify_stack(stack, result)
    failed = {c.name for c in report.failures}
    assert "billing.start-of-hour-rates" in failed
    assert "billing.ledger-total" in failed


def test_free_hour_without_revocation_note_trips_oracle():
    stack, result = _completed_stack()
    rate = float(stack.catalog.trace(KEY).price_at(0.0))
    stack.scheduler.ledger.entries.append(
        CostEntry(time=0.0, amount=0.0, rate=rate, kind="spot", market=str(KEY))
    )
    report = verify_stack(stack, result)
    assert "billing.start-of-hour-rates" in {c.name for c in report.failures}


def test_tampered_downtime_trips_availability_oracle():
    from repro.core.accounting import DowntimeInterval

    stack, result = _completed_stack()
    stack.scheduler.availability.downtime.append(
        DowntimeInterval(start=100.0, end=400.0, cause="tampered")
    )
    report = verify_stack(stack, result)
    assert "availability.report-agreement" in {c.name for c in report.failures}


def test_tampered_metrics_trip_metrics_oracle():
    stack, result = _completed_stack()
    stack.scheduler.metrics.counter("migrations.forced").inc(5)
    report = verify_stack(stack, result)
    assert "metrics.migration-counters" in {c.name for c in report.failures}


def test_verify_kwarg_raises_on_violation(monkeypatch):
    # Sabotage summarize_stack's output path: a result whose totals lie.
    import repro.core.simulation as sim

    real = sim.summarize_stack

    def lying(stack):
        import dataclasses

        return dataclasses.replace(real(stack), total_cost=999.0)

    monkeypatch.setattr(sim, "summarize_stack", lying)
    with pytest.raises(InvariantViolation):
        sim.run_simulation(_config(), verify=True)


def test_run_verified_returns_report_without_raising():
    observed, report = run_verified(_config())
    assert report.passed
    assert observed.result.total_cost >= 0.0
    assert observed.fired_events > 0


def test_rerun_determinism_check():
    report = check_rerun_determinism(_config())
    assert report.passed


def test_jobs_determinism_check():
    report = check_jobs_determinism(_config(), seeds=[1, 2, 3], jobs=2)
    assert report.passed


def test_verify_true_on_plain_run_is_green():
    # The public entry point: any honest simulation passes its own audit.
    result = run_simulation(_config(seed=17), verify=True)
    assert result.duration_hours > 0
