"""Executor retry/backoff and injected worker-crash behaviour."""

import pytest

from repro.errors import WorkerCrashError
from repro.runtime import RunSpec, run_batch
from repro.runtime.spec import StrategySpec
from repro.testkit.faults import FaultPlan
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def _spec(seed=1, **kw):
    return RunSpec(
        strategy=StrategySpec.single(KEY),
        seed=seed,
        horizon_s=days(2),
        regions=("us-east-1a",),
        sizes=("small",),
        **kw,
    )


def test_crash_free_run_reports_single_attempt():
    batch = run_batch([_spec()], retry_backoff_s=0.0)
    assert batch.run_telemetry[0].attempts == 1


def test_injected_crash_is_retried_and_absorbed():
    plan = FaultPlan(crash_seeds=(1,), crash_attempts=2)
    clean = run_batch([_spec()], retry_backoff_s=0.0)
    crashed = run_batch([_spec(faults=plan)], retries=2, retry_backoff_s=0.0)
    assert crashed.run_telemetry[0].attempts == 3
    # a plan with only crash faults never changes simulation results
    assert crashed.results[0] == clean.results[0]


def test_crashes_beyond_retry_budget_propagate():
    plan = FaultPlan(crash_seeds=(1,), crash_attempts=5)
    with pytest.raises(WorkerCrashError):
        run_batch([_spec(faults=plan)], retries=2, retry_backoff_s=0.0)


def test_zero_retries_fail_on_first_crash():
    plan = FaultPlan(crash_seeds=(1,), crash_attempts=1)
    with pytest.raises(WorkerCrashError):
        run_batch([_spec(faults=plan)], retries=0, retry_backoff_s=0.0)


def test_negative_retries_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_batch([_spec()], retries=-1)


def test_only_crash_seeds_crash():
    plan = FaultPlan(crash_seeds=(99,), crash_attempts=3)
    batch = run_batch([_spec(seed=1, faults=plan)], retries=0, retry_backoff_s=0.0)
    assert batch.run_telemetry[0].attempts == 1


@pytest.mark.slow
def test_crash_injection_across_process_pool():
    """Crashing seeds are retried inside pool workers; results stay
    byte-identical to the serial, crash-free batch."""
    plan = FaultPlan(crash_seeds=(2, 4), crash_attempts=1)
    clean_specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
    crash_specs = [_spec(seed=s, faults=plan) for s in (1, 2, 3, 4)]
    serial = run_batch(clean_specs, jobs=1, retry_backoff_s=0.0)
    pooled = run_batch(crash_specs, jobs=2, retries=2, retry_backoff_s=0.0)
    assert list(pooled.results) == list(serial.results)
    by_seed = {t.seed: t for t in pooled.run_telemetry}
    assert by_seed[2].attempts == 2
    assert by_seed[4].attempts == 2
    assert by_seed[1].attempts == 1


def test_backoff_sleeps_between_attempts(monkeypatch):
    import repro.runtime.executor as ex

    naps = []
    monkeypatch.setattr(ex.time, "sleep", lambda s: naps.append(s))
    plan = FaultPlan(crash_seeds=(1,), crash_attempts=2)
    run_batch([_spec(faults=plan)], retries=2, retry_backoff_s=0.1)
    assert naps == [pytest.approx(0.1), pytest.approx(0.2)]  # exponential


@pytest.mark.parametrize("jobs", [1, 2])
def test_deterministic_error_surfaces_without_retry(monkeypatch, jobs):
    """A deterministic failure (here a ConfigurationError raised while the
    run builds its stack) is not crash-shaped: it propagates from the
    first attempt, with no backoff sleep — in-process and from a worker."""
    import time

    import repro.runtime.executor as ex
    from repro.errors import ConfigurationError

    specs = [_spec(seed=1), _spec(seed=2, startup_cv=-1.0)]  # two units
    if jobs > 1:
        # Warm the pool before patching: workers forked from here keep the
        # real sleep, so a retry in a worker would cost the full backoff.
        run_batch([_spec(seed=3), _spec(seed=4)], jobs=jobs, retry_backoff_s=0.0)
    naps = []
    monkeypatch.setattr(ex.time, "sleep", lambda s: naps.append(s))
    t0 = time.perf_counter()
    with pytest.raises(ConfigurationError, match="startup cv"):
        run_batch(specs, jobs=jobs, retries=2, retry_backoff_s=30.0)
    assert naps == []
    assert time.perf_counter() - t0 < 20.0  # one retry would sleep 30 s


def test_os_errors_are_retried(monkeypatch):
    """An OSError is crash-shaped (a transient I/O fault): retried with
    backoff, then absorbed — the run still reports its attempts."""
    import repro.runtime.executor as ex

    real = ex._attempt_one
    failures = [OSError("transient")]

    def flaky(*args, **kwargs):
        if failures:
            raise failures.pop()
        return real(*args, **kwargs)

    naps = []
    monkeypatch.setattr(ex, "_attempt_one", flaky)
    monkeypatch.setattr(ex.time, "sleep", lambda s: naps.append(s))
    batch = run_batch([_spec()], retries=2, retry_backoff_s=0.1)
    assert naps == [pytest.approx(0.1)]
    assert batch.run_telemetry[0].attempts == 2
    assert batch.results == run_batch([_spec()]).results
