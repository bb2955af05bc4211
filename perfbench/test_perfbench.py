"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_self_times, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


# ----------------------------------------------------------------- spans
def test_self_time_of_nested_spans():
    spans = [
        Span("runtime.run_batch", 0.0, 10.0, -1),
        Span("traces.catalog", 1.0, 3.0, 0),
        Span("core.run", 3.0, 9.0, 0),
        Span("simulator.run", 4.0, 8.0, 2),
        Span("core.summarize", 8.0, 8.5, 2),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.5, 4.0, 0.5])
    by_layer = layer_self_times(spans)
    assert by_layer == pytest.approx(
        {"runtime": 2.0, "traces": 2.0, "core": 2.0, "simulator": 4.0}
    )
    assert sum(by_layer.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_restores():
    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    ns = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.patch(ns, "outer", "core.outer")
    tracer.patch(ns, "inner", "simulator.inner")
    assert ns.outer(1) == 4
    tracer.restore()
    assert ns.outer is outer and ns.inner is inner
    assert [(s.name, s.parent) for s in tracer.spans] == [("core.outer", -1), ("simulator.inner", 0)]
    own = self_times(tracer.spans)
    assert own[0] >= 0 and own[1] >= 0.002
    assert sum(own) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)
    tracer.patch(ns, "gone", "core.gone")  # a callable the program dropped
    assert not hasattr(ns, "gone")


# ----------------------------------------------------------------- names
def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*layers.END_TO_END, *layers.PER_LAYER, *workloads.WORKLOADS]:
        assert NAME.match(name), name
    for unit in [*layers.END_TO_END.values(), *layers.PER_LAYER.values()]:
        assert re.match(r"^[A-Za-z0-9_/%.\-]{1,16}$", unit), unit


# ------------------------------------------------------- failure counting
def _tiny_outcome(name, tmp_path):
    workload = workloads.make_workload(name, 5, tmp_path, tiny=True)
    workload.setup()
    outcome = workloads.Outcome()
    recorder = workloads.Recorder(outcome)
    recorder.install()
    try:
        workload.run(outcome)
    finally:
        recorder.restore()
        child.stop_pools()
    return workload, outcome


def _alter(outcome, index):
    batch = outcome.batches[0]
    results = list(batch.result.results)
    results[index] = dataclasses.replace(results[index], total_cost=results[index].total_cost + 1e-9)
    batch.result = dataclasses.replace(batch.result, results=tuple(results))


@pytest.mark.parametrize("name", ["sweep", "sweep-jobs2-ledger"])
def test_altered_sweep_result_fails_its_run(name, tmp_path, monkeypatch):
    workload, outcome = _tiny_outcome(name, tmp_path)
    digests, failed = workload.check(outcome)
    assert failed == [] and outcome.error is None
    entry = workload.reference_entry(digests, outcome)
    monkeypatch.setattr(workloads, "load_reference", lambda: {workload.name: entry})
    assert workload.reference_failures(digests, outcome) == []

    _alter(outcome, 3)
    altered = workload.digests(outcome)
    assert workload.reference_failures(altered, outcome) == ["3"]
    # The per-event re-run catches a sampled run without any reference.
    _alter(outcome, 0)
    _, failed = workload.check(outcome)
    assert "0" in failed


def test_altered_report_fails_its_experiment(tmp_path, monkeypatch):
    workload, outcome = _tiny_outcome("paper", tmp_path)
    digests, failed = workload.check(outcome)
    assert failed == [] and set(digests) == {"fig6", "ext-fleet"}
    entry = workload.reference_entry(digests, outcome)
    monkeypatch.setattr(workloads, "load_reference", lambda: {"paper": entry})
    outcome.stdout = outcome.stdout.replace("== fig6:", "== fig6 :", 1)
    assert workload.reference_failures(workload.digests(outcome), outcome) == ["fig6"]


def test_digest_drift_between_repetitions_counts_as_failure():
    rep = {"operations": ["a", "b"], "failed": [], "digests": {"a": "1", "b": "2"}}
    drifted = dict(rep, digests={"a": "1", "b": "3"})
    assert run.count_failures([rep, rep]) == (4, 0)
    assert run.count_failures([rep, drifted]) == (4, 1)
    assert run.count_failures([dict(rep, failed=["a"])]) == (2, 1)


# ------------------------------------------------------- traced tiny runs
ALWAYS_ZERO = {"runtime.retries"}  # no workload injects crashes


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    from repro.runtime import shared_catalog_cache

    out = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        shared_catalog_cache().clear()  # as in the fresh interpreter of a real run
        out[name] = child.measure(name, 5, workdir, time.time(), "trace", tiny=True)
    return out


def test_traced_tiny_runs_fill_every_layer_metric(traced_tiny):
    produced = set(layers.PER_LAYER) - {
        "bench.traced_wall_s", "bench.untraced_wall_s", "bench.trace_overhead_s"
    }
    nonzero = set()
    for name, record in traced_tiny.items():
        assert record["failed"] == [] and record["error"] is None, name
        metrics = record["layers"]
        assert set(metrics) == produced, name
        assert all(math.isfinite(v) and v >= 0 for v in metrics.values()), name
        nonzero |= {k for k, v in metrics.items() if v}
    ran = {"fig6", "ext-fleet", "tab3"}
    skipped = {f"experiments.{eid}.wall_s" for eid in workloads.EXPERIMENTS if eid not in ran}
    assert produced - nonzero == ALWAYS_ZERO | skipped


def test_traced_tiny_runs_put_work_in_the_expected_layers(traced_tiny):
    sweep = traced_tiny["sweep"]["layers"]
    assert sweep["runtime.runs"] == 80 and sweep["runtime.runs_cloned"] > 0
    assert sweep["runtime.fused.band_match_calls"] > 0
    jobs2 = traced_tiny["sweep-jobs2-ledger"]["layers"]
    assert jobs2["runtime.parallel_runs"] == jobs2["runtime.runs"] == 20
    assert jobs2["runtime.ledger.appends"] == 20 and jobs2["runtime.ledger.bytes"] > 0
    assert jobs2["runtime.event_runs"] == 20 and jobs2["runtime.worker_run_s"] > 0
    assert 0 < jobs2["runtime.worker_busy_frac"] <= 1
    traced = traced_tiny["paper-traced"]["layers"]
    assert traced["obs.trace_events"] > 0 and traced["obs.trace_bytes"] > 0
    paper = traced_tiny["paper"]["layers"]
    assert paper["fleet.assemble_s"] > 0 and paper["experiments.claims_held"] > 0
    assert paper["runtime.runs_cloned"] > 0 and paper["runtime.fused.plan_s"] > 0
    for record in traced_tiny.values():
        own = sum(v for k, v in record["layers"].items() if k.startswith("self."))
        assert own == pytest.approx(record["wall_s"], rel=0.05)


# ------------------------------------------------------------ the contract
def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
