"""Performance benchmarks of the library's hot paths.

These measure throughput of the substrate itself (not paper results):
trace generation, price queries, the event engine, MVA, and one full
scheduler simulation. Useful for catching performance regressions.
"""

import numpy as np
import pytest

from repro.core.bidding import ProactiveBidding
from repro.core.simulation import RunSpec, run_simulation
from repro.runtime import StrategySpec
from repro.runtime.cache import shared_catalog_cache
from repro.simulator.engine import Engine
from repro.traces.calibration import calibration_for
from repro.traces.catalog import MarketKey, build_catalog
from repro.traces.generator import generate_trace
from repro.units import days
from repro.workload.queueing import ClosedNetwork, Station, mva_sweep

KEY = MarketKey("us-east-1a", "small")


@pytest.mark.benchmark(group="perf")
def test_bench_perf_trace_generation(benchmark):
    """Generate one 30-day market trace."""
    cal = calibration_for("us-east-1a", "small")
    trace = benchmark(generate_trace, cal, days(30), 7)
    assert len(trace) > 1000


@pytest.mark.benchmark(group="perf")
def test_bench_perf_full_catalog(benchmark):
    """Generate the full 16-market catalog, cold: ``build_catalog`` uses a
    fresh market store, so no round is served from the process's cache."""
    before = shared_catalog_cache().stats()
    cat = benchmark(build_catalog, 7, days(30))
    assert len(cat) == 16
    assert shared_catalog_cache().stats() == before


@pytest.mark.benchmark(group="perf")
def test_bench_perf_price_queries(benchmark):
    """100k vectorised price lookups on a month-long trace."""
    trace = generate_trace(calibration_for("us-east-1a", "small"), days(30), 7)
    ts = np.random.default_rng(0).uniform(0, days(30), size=100_000)

    def query():
        return trace.price_at(ts)

    out = benchmark(query)
    assert out.shape == (100_000,)


@pytest.mark.benchmark(group="perf")
def test_bench_perf_event_engine(benchmark):
    """Schedule and fire 50k events."""

    def run():
        eng = Engine()
        for i in range(50_000):
            eng.schedule(float(i % 977), lambda e, ev: None)
        eng.run()
        return eng.fired_count

    assert benchmark(run) == 50_000


@pytest.mark.benchmark(group="perf")
def test_bench_perf_mva_sweep(benchmark):
    """Exact MVA to N=400 over a 3-station network."""
    net = ClosedNetwork(
        stations=(Station("cpu", 0.032), Station("disk", 0.012), Station("net", 0.01)),
        think_time_s=7.0,
    )
    sols = benchmark(mva_sweep, net, list(range(50, 401, 50)))
    assert len(sols) == 8


@pytest.mark.benchmark(group="perf")
def test_bench_perf_single_simulation(benchmark):
    """One full 30-day proactive single-market scheduler run."""
    spec = RunSpec(
        strategy=StrategySpec.single(KEY),
        bidding=ProactiveBidding(),
        seed=7,
        horizon_s=days(30),
        regions=("us-east-1a",),
        sizes=("small",),
    )
    result = benchmark(run_simulation, spec)
    assert result.duration_hours > 700
