"""Executor: parallel fan-out must be indistinguishable from serial."""

import os

import pytest

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.simulation import run_many, run_simulation
from repro.errors import ConfigurationError
from repro.obs import observe
from repro.runtime import (
    BatchSpec,
    ExecutionOptions,
    RunSpec,
    StrategySpec,
    TraceCatalogCache,
    batches_summary,
    run_batch,
)
from repro.traces.calibration import SIZES
from repro.traces.catalog import MarketKey
from repro.units import days

REGION = "us-east-1a"


def fig6_style_runs(seeds=(11, 23), sizes=("small", "medium"), horizon=days(3)):
    """The fig6 shape: seeds × sizes × {reactive, proactive} single-market."""
    runs = []
    for size in sizes:
        key = MarketKey(REGION, size)
        for bidding in (ReactiveBidding(), ProactiveBidding()):
            for seed in seeds:
                runs.append(
                    RunSpec(
                        strategy=StrategySpec.single(key),
                        bidding=bidding,
                        seed=seed,
                        horizon_s=horizon,
                        regions=(REGION,),
                        sizes=(size,),
                        label=f"{bidding.name}/{size}",
                    )
                )
    return runs


class TestSerial:
    def test_results_in_submission_order(self):
        runs = fig6_style_runs(seeds=(3, 1, 2), sizes=("small",))
        batch = run_batch(runs, cache=TraceCatalogCache())
        assert [r.seed for r in batch.results] == [r.seed for r in runs]
        assert [r.label for r in batch.results] == [r.label for r in runs]

    def test_matches_run_simulation(self):
        run = fig6_style_runs(seeds=(7,), sizes=("small",))[0]
        batch = run_batch([run], cache=TraceCatalogCache())
        assert batch.results[0] == run_simulation(run)

    def test_progress_called_per_run(self):
        runs = fig6_style_runs(seeds=(1, 2), sizes=("small",))
        seen = []
        run_batch(runs, cache=TraceCatalogCache(), progress=seen.append)
        assert len(seen) == len(runs)
        assert all(t.events_processed > 0 and t.wall_s > 0 for t in seen)

    def test_rejects_empty_and_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            run_batch([])
        with pytest.raises(ConfigurationError):
            run_batch(fig6_style_runs(seeds=(1,), sizes=("small",)), jobs=0)

    def test_accepts_batch_spec(self):
        base = RunSpec(
            strategy=StrategySpec.single(MarketKey(REGION, "small")),
            horizon_s=days(2),
            regions=(REGION,),
            sizes=("small",),
        )
        runs = BatchSpec(runs=(base.with_(seed=1), base.with_(seed=2)))
        batch = run_batch(runs, cache=TraceCatalogCache())
        assert [r.seed for r in batch.results] == [1, 2]


class TestParallelDeterminism:
    def test_jobs4_identical_to_serial_fig6_style(self):
        """Satellite: a jobs=4 batch equals the serial batch field for
        field, in the same order."""
        runs = fig6_style_runs()
        serial = run_batch(runs, jobs=1, cache=TraceCatalogCache())
        parallel = run_batch(runs, jobs=4)
        assert list(parallel.results) == list(serial.results)  # dataclass eq
        for s, p in zip(serial.results, parallel.results):
            assert s.downtime_by_cause == p.downtime_by_cause
            assert s.spot_time_fraction == p.spot_time_fraction

    def test_parallel_runs_use_worker_processes(self):
        runs = fig6_style_runs(seeds=(1, 2), sizes=("small",))
        batch = run_batch(runs, jobs=2)
        pids = {t.worker_pid for t in batch.run_telemetry}
        assert batch.telemetry.parallel_runs == len(runs)
        assert os.getpid() not in pids

    def test_run_many_jobs_matches_serial(self):
        spec = RunSpec(
            strategy=StrategySpec.single(MarketKey(REGION, "small")),
            horizon_s=days(3),
            regions=(REGION,),
            sizes=("small",),
        )
        assert run_many(spec, [1, 2, 3], execution=ExecutionOptions(jobs=4)) == run_many(
            spec, [1, 2, 3]
        )


class TestTelemetry:
    def test_batch_telemetry_counts(self):
        runs = fig6_style_runs(seeds=(1, 2), sizes=("small",))
        batch = run_batch(runs, cache=TraceCatalogCache())
        t = batch.telemetry
        assert t.runs == 4 and t.jobs == 1 and t.parallel_runs == 0
        assert t.catalog_builds == 2 and t.catalog_cache_hits == 2
        assert t.events_processed == sum(r.events_processed for r in batch.run_telemetry)
        assert "4 runs" in t.summary()

    def test_nested_observe_scopes_collect_telemetry(self):
        runs = fig6_style_runs(seeds=(1,), sizes=("small",))
        with observe() as outer:
            run_batch(runs, cache=TraceCatalogCache())
            with observe() as inner:
                run_batch(runs, cache=TraceCatalogCache())
        assert len(outer.runs) == 4 and len(inner.runs) == 2
        assert len(outer.batches) == 2 and len(inner.batches) == 1
        # Outside the scope nothing is collected.
        run_batch(runs, cache=TraceCatalogCache())
        assert len(outer.runs) == 4

    def test_cli_footers_render_through_batches_summary(self, monkeypatch, capsys):
        """The runner footer and the fleet ``[runtime: …]`` line are one
        renderer over the scope's batches."""
        import contextlib

        from repro.experiments import runner
        from repro.fleet import cli as fleet_cli

        scopes = []

        @contextlib.contextmanager
        def spy(**kw):
            with observe(**kw) as scope:
                scopes.append(scope)
                yield scope

        monkeypatch.setattr(runner, "observe", spy)
        monkeypatch.setattr(fleet_cli, "observe", spy)
        runner.main(["--fast", "fig6"])
        fleet_cli.main(["--fast", "--services", "4", "--top", "0"])
        out = capsys.readouterr().out
        experiment, fleet = scopes
        assert experiment.batches and fleet.batches
        assert f"s | {batches_summary(experiment.batches)}]\n" in out
        assert f"[runtime: {batches_summary(fleet.batches)}]\n" in out
