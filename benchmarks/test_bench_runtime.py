"""Benchmarks of the repro.runtime batch executor.

Two angles: (i) pytest-benchmark microbenchmarks of the batch hot path
(catalog-cache hits), and (ii) a wall-clock comparison of the full fig6
driver at ``jobs=1`` versus ``jobs=4``, recorded to
``benchmarks/output/runtime_speedup.txt``. The parallel run must render a
byte-identical report; the >=2x speedup assertion only applies when the
machine actually has >= 4 usable cores.
"""

import os
import time
from pathlib import Path

import pytest

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.experiments import ExperimentConfig, run_experiment
from repro.runtime import RunSpec, StrategySpec, TraceCatalogCache, run_batch
from repro.runtime.cache import shared_catalog_cache
from repro.traces.catalog import MarketKey
from repro.units import days

OUTPUT_DIR = Path(__file__).parent / "output"

KEY = MarketKey("us-east-1a", "small")


def _policy_comparison_runs(seeds=(11, 23, 37)):
    """Reactive vs proactive on the same seeds: the same-sample shape."""
    return [
        RunSpec(
            strategy=StrategySpec.single(KEY),
            bidding=bidding,
            seed=seed,
            horizon_s=days(30),
            regions=("us-east-1a",),
            sizes=("small",),
        )
        for bidding in (ReactiveBidding(), ProactiveBidding())
        for seed in seeds
    ]


@pytest.mark.benchmark(group="runtime")
def test_bench_runtime_batch_cold_cache(benchmark):
    """Six 30-day runs, fresh cache each round: generates 3 markets, one per seed."""
    runs = _policy_comparison_runs()

    def execute():
        return run_batch(runs, cache=TraceCatalogCache())

    batch = benchmark(execute)
    assert batch.telemetry.catalog_builds == 3
    assert batch.telemetry.catalog_cache_hits == 3


@pytest.mark.benchmark(group="runtime")
def test_bench_runtime_batch_warm_cache(benchmark):
    """The same six runs on a pre-warmed cache: generates no market."""
    runs = _policy_comparison_runs()
    cache = TraceCatalogCache()
    run_batch(runs, cache=cache)

    def execute():
        return run_batch(runs, cache=cache)

    batch = benchmark(execute)
    assert batch.telemetry.catalog_builds == 0
    assert batch.telemetry.catalog_cache_hits == len(runs)


def test_runtime_fig6_parallel_speedup():
    """Record full-fidelity fig6 wall-clock at jobs=1 versus jobs=4.

    Always asserts the parallel report is byte-identical to the serial
    one; asserts the >=2x speedup only where four cores exist to provide
    it (the result file records the measurement either way).
    """
    cores = len(os.sched_getaffinity(0))

    t0 = time.perf_counter()
    parallel_report = run_experiment("fig6", ExperimentConfig(jobs=4))
    parallel_s = time.perf_counter() - t0

    shared_catalog_cache().clear()  # a fair, cold-cache serial run
    t0 = time.perf_counter()
    serial_report = run_experiment("fig6", ExperimentConfig(jobs=1))
    serial_s = time.perf_counter() - t0

    assert parallel_report.render() == serial_report.render()

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "runtime_speedup.txt").write_text(
        "fig6 full-fidelity driver, serial vs 4 workers\n"
        f"cores available : {cores}\n"
        f"jobs=1 wall     : {serial_s:.2f}s\n"
        f"jobs=4 wall     : {parallel_s:.2f}s\n"
        f"speedup         : {speedup:.2f}x\n"
        f"reports byte-identical: yes\n"
    )
    print(f"\nfig6 serial {serial_s:.2f}s, jobs=4 {parallel_s:.2f}s -> {speedup:.2f}x")
    if cores >= 4:
        assert speedup >= 2.0, f"expected >=2x speedup on {cores} cores, got {speedup:.2f}x"
