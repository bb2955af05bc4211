"""Perf-regression benchmarks: scheduler decisions and batch fan-out.

Unlike the paper-figure benches, these two measure the optimisation
targets of the compiled-trace work directly and persist their numbers to
``benchmarks/output/BENCH_perf.current.json``. The committed baseline at
the repo root (``BENCH_perf.json``) is what
``tools/check_bench_regression.py`` compares against in CI; refresh it
by copying the current file after an intentional perf change.

* ``test_bench_decision_queries_compiled_vs_naive`` replays a realistic
  scheduler interrogation mix (crossing lookups + window aggregates) on a
  month-long trace through both the compiled plan and the ``naive_*``
  oracles of :mod:`repro.testkit.oracles`, asserting the >= 3x
  acceptance-criterion speedup.
* ``test_bench_scalar_boundary_visit`` times one traced month on the
  per-event engine and records microseconds per boundary visit.
* ``test_bench_batch_sweep_64_jobs4`` times a 64-run policy sweep
  (32 proactive variants x 2 seeds) serially and at ``jobs=4``. Both go
  through the same unit pipeline, so the pool run must return the serial
  results and clone exactly as many runs; the sweep's 2 catalogs make
  2 units, so the pool is at most 2 wide here. The parallel-speedup entry
  is only recorded on boxes with real cores; a 1-core container
  degenerates to serial-plus-overhead and its ratio would gate nothing
  meaningful.
* ``test_bench_batch_sweep_64_vector_vs_event`` times the same 64-run
  sweep serially through both execution engines and asserts the vector
  engine's speedup; ``test_bench_frontier_sweep_10k`` scales it to a
  10k-run frontier sweep (slow lane) with an under-a-minute budget.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.bidding import ProactiveBidding
from repro.core.simulation import RunSpec, build_stack
from repro.obs.events import BillingTick
from repro.obs.sinks import MemorySink
from repro.runtime import ExecutionOptions, RunSpec, StrategySpec, TraceCatalogCache, run_batch
from repro.testkit.oracles import (
    naive_first_time_above,
    naive_first_time_at_or_below,
    naive_mean_price,
    naive_time_above,
    unfused_vector_results,
)
from repro.traces.calibration import calibration_for
from repro.traces.catalog import MarketKey, build_catalog
from repro.traces.generator import generate_trace
from repro.traces.trace import PriceTrace
from repro.units import days, hours

REGION = "us-east-1a"
CURRENT_PATH = Path(__file__).parent / "output" / "BENCH_perf.current.json"


def record(**entries) -> None:
    """Merge measured entries into the current-results file."""
    CURRENT_PATH.parent.mkdir(exist_ok=True)
    data = {"schema": 1, "benchmarks": {}}
    if CURRENT_PATH.exists():
        data = json.loads(CURRENT_PATH.read_text())
    data.setdefault("benchmarks", {}).update(entries)
    CURRENT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------- scheduler decision micro
@pytest.mark.benchmark(group="decisions")
def test_bench_decision_queries_compiled_vs_naive():
    """The decision mix must be >= 3x faster through the compiled plan."""
    trace = generate_trace(calibration_for(REGION, "small"), days(30), 7)
    assert len(trace) > 1000
    rng = np.random.default_rng(0)
    probes = np.sort(rng.uniform(trace.start, trace.horizon - hours(2), 400)).tolist()
    on_demand = trace.mean_price()
    bid = 2.5 * on_demand

    def compiled_pass():
        # Fresh trace per pass so plan construction + memoization are billed
        # to the compiled side, exactly as a run pays them.
        t = PriceTrace(trace.times, trace.prices, trace.horizon)
        acc = 0.0
        for probe in probes:
            acc += t.first_time_above(bid, probe) or 0.0
            acc += t.first_time_at_or_below(on_demand, probe) or 0.0
            acc += t.mean_price(probe, probe + hours(1))
            acc += t.time_above(on_demand, probe, probe + hours(1))
        return acc

    def naive_pass():
        acc = 0.0
        for probe in probes:
            acc += naive_first_time_above(trace, bid, probe) or 0.0
            acc += naive_first_time_at_or_below(trace, on_demand, probe) or 0.0
            acc += naive_mean_price(trace, probe, probe + hours(1))
            acc += naive_time_above(trace, on_demand, probe, probe + hours(1))
        return acc

    assert compiled_pass() == naive_pass()  # exactness, then speed
    compiled_s = best_of(compiled_pass)
    naive_s = best_of(naive_pass)
    speedup = naive_s / compiled_s
    record(
        scheduler_decisions_compiled_s={"value": compiled_s, "unit": "s"},
        scheduler_decisions_naive_s={"value": naive_s, "unit": "s"},
        scheduler_decisions_speedup_x={"value": speedup, "unit": "x"},
    )
    print(f"\ndecision mix: compiled {compiled_s:.4f}s, naive {naive_s:.4f}s, {speedup:.1f}x")
    assert speedup >= 3.0, f"compiled decision path only {speedup:.2f}x faster"


# ------------------------------------------------------ scalar boundary path
@pytest.mark.benchmark(group="decisions")
def test_bench_scalar_boundary_visit():
    """Microseconds per boundary visit on the per-event engine, traced.

    One month on one market under proactive bidding, run per event into a
    memory sink, the way every ``--trace`` run executes. Nearly every
    engine event is one boundary visit: a timer wake-up, a stay decision
    and its ``BillingTick``. The scheduler's run time (stack assembly
    excluded), best of five, is divided by the number of ticks.
    """
    key = MarketKey(REGION, "small")
    spec = RunSpec(
        strategy=StrategySpec.single(key),
        seed=11,
        horizon_s=days(30),
        regions=(REGION,),
        sizes=("small",),
    )
    catalog = build_catalog(spec.seed, spec.horizon_s, spec.regions, spec.sizes)

    def traced_run():
        sink = MemorySink()
        stack = build_stack(spec, sink=sink, engine="event", catalog=catalog)
        t0 = time.perf_counter()
        stack.scheduler.run()
        elapsed = time.perf_counter() - t0
        return elapsed, sum(1 for e in sink.events if isinstance(e, BillingTick))

    runs = [traced_run() for _ in range(5)]
    visits = runs[0][1]
    assert visits > 600  # about one check per billing hour
    visit_us = min(elapsed for elapsed, _ in runs) / visits * 1e6
    record(
        scalar_boundary_visit_us={
            "value": visit_us,
            "unit": "us",
            "cores": os.cpu_count() or 1,
        }
    )
    print(f"\nscalar boundary visit: {visit_us:.2f} us over {visits} visits")


# ------------------------------------------------------- 64-run batch sweep
def sweep_runs():
    """32 proactive-bidding variants x 2 seeds over one small market."""
    runs = []
    key = MarketKey(REGION, "small")
    for seed in (11, 23):
        for k in np.linspace(1.5, 9.0, 16):
            for frac in (0.85, 0.95):
                runs.append(
                    RunSpec(
                        strategy=StrategySpec.single(key),
                        bidding=ProactiveBidding(k=float(k), reverse_threshold_frac=frac),
                        seed=seed,
                        horizon_s=days(30),
                        regions=(REGION,),
                        sizes=("small",),
                        label=f"k={k:.2f}/f={frac}",
                    )
                )
    return runs


@pytest.mark.benchmark(group="batch-sweep")
def test_bench_batch_sweep_64_jobs4():
    """The 64-run sweep at ``jobs=4`` equals the serial batch.

    One pipeline serves every ``jobs`` value: each catalog's runs form
    one unit that plans dedupe and fusion the same way in a worker as
    in-process. So the pool batch must return the serial results and
    clone exactly as many runs. Its wall-clock is pool dispatch plus the
    slower of the 2 units; the ratio to serial is recorded only on boxes
    with more than 2 cores.
    """
    runs = sweep_runs()
    assert len(runs) == 64
    cache = TraceCatalogCache()
    jobs = 4

    run_batch(runs, jobs=1, cache=cache)  # warm the serial path
    t0 = time.perf_counter()
    serial = run_batch(runs, jobs=1, cache=cache)
    serial_s = time.perf_counter() - t0
    # Warm the pool and both seeds' catalogs in the workers.
    run_batch(runs[:2] + runs[32:34], jobs=jobs, cache=cache)
    t0 = time.perf_counter()
    pooled = run_batch(runs, jobs=jobs, cache=cache)
    pooled_s = time.perf_counter() - t0
    assert list(pooled.results) == list(serial.results)
    assert pooled.telemetry.deduped_runs == serial.telemetry.deduped_runs
    cores = os.cpu_count() or 1
    entries = dict(
        batch_sweep_64_serial_s={"value": serial_s, "unit": "s"},
        batch_sweep_64_jobs4_s={"value": pooled_s, "unit": "s"},
    )
    if cores > 2:
        # A parallel "speedup" measured on a 1- or 2-core box is pool
        # overhead, not fan-out width — recording it would gate noise
        # (entry 1 recorded a misleading 0.92x exactly this way).
        entries["batch_sweep_64_speedup_x"] = {"value": serial_s / pooled_s, "unit": "x"}
    record(**entries)
    print(
        f"\n64-run sweep ({cores} cores): serial {serial_s:.3f}s, "
        f"jobs={jobs} {pooled_s:.3f}s ({serial.telemetry.deduped_runs} deduped at both)"
    )


# --------------------------------------------------- vector engine sweeps
@pytest.mark.benchmark(group="batch-sweep")
def test_bench_batch_sweep_64_vector_vs_event():
    """The vector engine must beat the event engine on the 64-run sweep.

    Both engines run serially in-process against a warm catalog cache, so
    the ratio isolates the execution engines from catalog builds and
    machine-speed drift (the committed entry-2 baseline additionally pins
    the absolute vector wall-clock). The floor is deliberately below the
    typically measured ~9x: shared runners throttle, and this gate exists
    to catch an accidental fallback to per-event execution, not jitter.
    """
    runs = sweep_runs()
    cache = TraceCatalogCache()
    event = run_batch(runs, engine="event", cache=cache)  # warms the cache
    vector = run_batch(runs, engine="auto", cache=cache)
    assert list(vector.results) == list(event.results)
    assert vector.telemetry.vector_runs == 64
    assert vector.telemetry.vector_checks > 0
    event_s = best_of(lambda: run_batch(runs, engine="event", cache=cache))
    vector_s = best_of(lambda: run_batch(runs, engine="auto", cache=cache))
    speedup = event_s / vector_s
    record(
        batch_sweep_64_event_s={"value": event_s, "unit": "s"},
        batch_sweep_64_vector_s={"value": vector_s, "unit": "s"},
        batch_sweep_64_vector_speedup_x={"value": speedup, "unit": "x"},
    )
    print(
        f"\n64-run sweep serial: event {event_s:.3f}s, vector {vector_s:.3f}s, "
        f"{speedup:.1f}x ({vector.telemetry.deduped_runs} deduped, "
        f"{vector.telemetry.vector_checks} checks)"
    )
    assert speedup >= 4.0, f"vector engine only {speedup:.2f}x over per-event"


@pytest.mark.benchmark(group="batch-sweep")
@pytest.mark.slow
def test_bench_frontier_sweep_10k():
    """A 10k-run frontier sweep: ``auto`` must beat the unfused reference 3x.

    10 catalog seeds x 1000 policy variants (100 bid multipliers x 5
    reverse thresholds x 2 strategies), all vector-routed, timed two ways:
    the unfused per-run vector reference
    (:func:`repro.testkit.oracles.unfused_vector_results`, plain-key dedupe
    only — comparable to the entry-2 baseline, which predates fusion), and
    ``run_batch(engine="auto")``, which layers capability/rank-projected
    dedupe and reverse-band cloning on top. The telemetry decomposition
    (executed vs deduped) is printed so the dedupe share stays visible
    rather than implied, and both wall-clocks are recorded —
    ``batch_sweep_10k_fused_s`` is the gated headline number.
    """
    key = MarketKey(REGION, "small")
    runs = []
    for seed in range(10):
        for k in np.linspace(1.5, 9.0, 100):
            for frac in (0.80, 0.85, 0.90, 0.95, 0.99):
                for strat in (StrategySpec.single(key), StrategySpec.pure_spot(key)):
                    runs.append(
                        RunSpec(
                            strategy=strat,
                            bidding=ProactiveBidding(
                                k=float(k), reverse_threshold_frac=frac
                            ),
                            seed=seed,
                            horizon_s=days(30),
                            regions=(REGION,),
                            sizes=("small",),
                            label=f"s{seed}/k={k:.2f}/f={frac}",
                        )
                    )
    assert len(runs) == 10_000
    cache = TraceCatalogCache()
    run_batch(runs[:20], engine="auto", cache=cache)  # warm one catalog + code
    t0 = time.perf_counter()
    reference = unfused_vector_results(runs, cache)
    vector_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch = run_batch(runs, engine="auto", cache=cache)
    fused_s = time.perf_counter() - t0
    assert list(batch.results) == reference
    tel = batch.telemetry
    executed = tel.runs - tel.deduped_runs
    speedup = vector_s / fused_s
    record(
        batch_sweep_10k_vector_s={"value": vector_s, "unit": "s"},
        batch_sweep_10k_fused_s={"value": fused_s, "unit": "s"},
        batch_sweep_10k_fused_speedup_x={"value": speedup, "unit": "x"},
    )
    print(
        f"\n10k frontier sweep: unfused vector {vector_s:.1f}s, auto {fused_s:.1f}s "
        f"({speedup:.1f}x; {executed} executed + {tel.deduped_runs} deduped clones)"
    )
    assert tel.vector_runs == 10_000
    assert fused_s < 2.5, f"auto 10k sweep took {fused_s:.1f}s (budget 2.5s)"
    assert speedup >= 3.0, f"auto sweep only {speedup:.2f}x over unfused vector"


@pytest.mark.benchmark(group="fleet")
@pytest.mark.slow
def test_bench_fleet_100_auto():
    """The 100-service fleet default (``--engine auto``) stays fast.

    The synthesized fleet is the heterogeneous counter-case to the sweep:
    ~100 distinct strategies over one shared market catalog, so fusion's
    dedupe tiers find only a handful of clones and the win here comes
    from the newly vector-routed dwell-state families (stability,
    index-tracking, portfolio-bid) that previously fell back to per-event
    execution. Auto must stay within noise of the best engine choice.
    """
    from repro.fleet.runner import run_fleet
    from repro.fleet.spec import synthesize_fleet

    spec = synthesize_fleet(n_services=100, seed=0, horizon_s=days(30))
    event_opts, auto_opts = ExecutionOptions(engine="event"), ExecutionOptions(engine="auto")
    event = run_fleet(spec, execution=event_opts)  # warms every catalog
    auto = run_fleet(spec, execution=auto_opts)
    assert auto.to_json() == event.to_json()
    auto_s = best_of(lambda: run_fleet(spec, execution=auto_opts))
    record(fleet_100_auto_s={"value": auto_s, "unit": "s"})
    print(f"\n100-service fleet, auto engine: {auto_s:.3f}s")
    assert auto_s < 5.0, f"100-service fleet took {auto_s:.2f}s (budget 5s)"
