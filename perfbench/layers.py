"""Per-layer metrics of a traced timed phase.

:func:`install` wraps the public callables of each layer where their
callers look them up; :func:`layer_metrics` turns the recorded spans, the
batches' :class:`~repro.runtime.RunTelemetry` and the files the workload
wrote into the metrics named in ``PER_LAYER``. Runs executed in pool
workers record no spans here; their numbers come from the telemetry each
run returns (``runtime.worker_run_s``, ``simulator.events``).
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.experiments.registry import EXPERIMENTS

from spans import Tracer, layer_self_times, self_times

__all__ = ["END_TO_END", "LAYERS", "PER_LAYER", "install", "layer_metrics"]

#: End-to-end metrics of every untraced run: name -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers that own spans; ``bench`` is the timed phase's own code.
LAYERS = (
    "bench", "experiments", "runtime", "traces", "core", "simulator",
    "obs", "fleet", "analysis",
)

#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER: Dict[str, str] = {
    "traces.catalog_builds": "count",
    "traces.catalog_hits": "count",
    "traces.catalog_build_s": "s",
    "core.run_s": "s",
    "core.build_stack_s": "s",
    "core.summarize_s": "s",
    "simulator.events": "count",
    "simulator.run_s": "s",
    "simulator.us_per_event": "us",
    "runtime.batches": "count",
    "runtime.batch_s": "s",
    "runtime.self_s": "s",
    "runtime.runs": "count",
    "runtime.runs_executed": "count",
    "runtime.runs_cloned": "count",
    "runtime.executed_ratio": "ratio",
    "runtime.vector_runs": "count",
    "runtime.event_runs": "count",
    "runtime.vector_checks": "count",
    "runtime.fused.plan_s": "s",
    "runtime.fused.band_match_calls": "count",
    "runtime.fused.band_match_s": "s",
    "runtime.parallel_runs": "count",
    "runtime.shm.catalogs": "count",
    "runtime.shm.publish_s": "s",
    "runtime.worker_run_s": "s",
    "runtime.worker_busy_frac": "ratio",
    "runtime.retries": "count",
    "runtime.ledger.appends": "count",
    "runtime.ledger.append_s": "s",
    "runtime.ledger.bytes": "B",
    "obs.trace_events": "count",
    "obs.trace_bytes": "B",
    "obs.write_s": "s",
    "fleet.assemble_s": "s",
    "analysis.render_s": "s",
    **{f"experiments.{eid}.wall_s": "s" for eid in sorted(EXPERIMENTS)},
    "experiments.claims_held": "count",
    "experiments.claims_deviated": "count",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "bench.traced_wall_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public callables where their callers find them."""
    import repro.runtime as runtime
    from repro.analysis.report import ExperimentReport
    from repro.core import simulation
    from repro.experiments import common, runner
    from repro.fleet import runner as fleet_runner
    from repro.obs.capture import ObservationScope
    from repro.runtime import executor, fused
    from repro.runtime.cache import TraceCatalogCache
    from repro.runtime.ledger import RunLedger
    from repro.simulator.engine import Engine

    for owner in (runtime, executor, common):
        tracer.patch(owner, "run_batch", "runtime.run_batch")
    tracer.patch(
        TraceCatalogCache, "get_or_build", "traces.catalog",
        tag=lambda args, result: "hit" if result is not None and result[1] else "build",
    )
    tracer.patch(simulation, "run_simulation_observed", "core.run")
    tracer.patch(simulation, "build_stack", "core.build_stack")
    tracer.patch(simulation, "summarize_stack", "core.summarize")
    tracer.patch(Engine, "run", "simulator.run")
    tracer.patch(fused, "plan_fusion", "runtime.fused.plan")
    tracer.patch(fused, "band_matches", "runtime.fused.band_match")
    tracer.patch(executor, "publish_catalog", "runtime.shm.publish")
    tracer.patch(RunLedger, "record_run", "runtime.ledger.append")
    tracer.patch(ObservationScope, "write_jsonl", "obs.write")
    tracer.patch(fleet_runner, "assemble_report", "fleet.assemble")
    tracer.patch(ExperimentReport, "render", "analysis.render")
    tracer.patch(runner, "run_experiment", "experiments.run", tag=lambda args, _: args[0])


def layer_metrics(tracer: Tracer, batches: List, reports: Dict, files: Dict) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric except the three ``bench.*`` ones, which
    need the untraced repetition too."""
    spans = tracer.spans
    own = self_times(spans)
    durations: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for s in spans:
        durations[s.name] = durations.get(s.name, 0.0) + (s.end - s.start)
        counts[s.name] = counts.get(s.name, 0) + 1

    def total(name: str) -> float:
        return durations.get(name, 0.0)

    catalog = [s for s in spans if s.name == "traces.catalog"]
    builds = [s for s in catalog if s.tag == "build"]
    pid = os.getpid()
    telemetry = [t for b in batches for t in b.result.run_telemetry]
    executed = [t for t in telemetry if not t.deduped and not t.replayed]
    local = [t for t in executed if t.worker_pid == pid]
    pooled = [t for t in executed if t.worker_pid != pid]
    batch_tel = [b.result.telemetry for b in batches]
    runs = sum(t.runs for t in batch_tel)
    cloned = sum(t.deduped_runs for t in batch_tel)
    worker_run_s = sum(t.wall_s for t in pooled)
    worker_capacity = sum(t.jobs * t.wall_s for t in batch_tel if t.parallel_runs)
    local_events = sum(t.events_processed for t in local)
    pooled_events = sum(t.events_processed for t in pooled)
    if local_events:
        us_per_event = 1e6 * total("simulator.run") / local_events
    elif pooled_events:
        # Pool runs report only their whole wall clock.
        us_per_event = 1e6 * worker_run_s / pooled_events
    else:
        us_per_event = 0.0
    verdicts = [c.verdict() for r in reports.values() for c in r.comparisons]
    trace_file, ledger_dir = files.get("trace"), files.get("ledger")
    trace_bytes = trace_file.stat().st_size if trace_file and trace_file.exists() else 0
    trace_events = 0
    if trace_bytes:
        with trace_file.open("rb") as fp:
            trace_events = sum(chunk.count(b"\n") for chunk in iter(lambda: fp.read(1 << 20), b""))
    ledger_bytes = (
        sum(p.stat().st_size for p in ledger_dir.iterdir())
        if ledger_dir and ledger_dir.is_dir() else 0
    )

    metrics: Dict[str, float] = {
        "traces.catalog_builds": len(builds),
        "traces.catalog_hits": len(catalog) - len(builds),
        "traces.catalog_build_s": sum(s.end - s.start for s in builds),
        "core.run_s": total("core.run"),
        "core.build_stack_s": total("core.build_stack"),
        "core.summarize_s": total("core.summarize"),
        "simulator.events": sum(t.events_processed for t in executed),
        "simulator.run_s": total("simulator.run"),
        "simulator.us_per_event": us_per_event,
        "runtime.batches": counts.get("runtime.run_batch", 0),
        "runtime.batch_s": total("runtime.run_batch"),
        "runtime.self_s": sum(o for s, o in zip(spans, own) if s.name == "runtime.run_batch"),
        "runtime.runs": runs,
        "runtime.runs_executed": runs - cloned,
        "runtime.runs_cloned": cloned,
        "runtime.executed_ratio": (runs - cloned) / runs if runs else 0.0,
        "runtime.vector_runs": sum(1 for t in executed if t.engine_kind == "vector"),
        "runtime.event_runs": sum(1 for t in executed if t.engine_kind == "event"),
        "runtime.vector_checks": sum(t.vector_checks for t in executed),
        "runtime.fused.plan_s": total("runtime.fused.plan"),
        "runtime.fused.band_match_calls": counts.get("runtime.fused.band_match", 0),
        "runtime.fused.band_match_s": total("runtime.fused.band_match"),
        "runtime.parallel_runs": sum(t.parallel_runs for t in batch_tel),
        "runtime.shm.catalogs": sum(t.shm_catalogs for t in batch_tel),
        "runtime.shm.publish_s": total("runtime.shm.publish"),
        "runtime.worker_run_s": worker_run_s,
        "runtime.worker_busy_frac": worker_run_s / worker_capacity if worker_capacity else 0.0,
        "runtime.retries": sum(t.attempts - 1 for t in executed),
        "runtime.ledger.appends": counts.get("runtime.ledger.append", 0),
        "runtime.ledger.append_s": total("runtime.ledger.append"),
        "runtime.ledger.bytes": ledger_bytes,
        "obs.trace_events": trace_events,
        "obs.trace_bytes": trace_bytes,
        "obs.write_s": total("obs.write"),
        "fleet.assemble_s": total("fleet.assemble"),
        "analysis.render_s": total("analysis.render"),
        "experiments.claims_held": sum(v in ("OK", "NEAR") for v in verdicts),
        "experiments.claims_deviated": sum(v == "DEVIATES" for v in verdicts),
    }
    for eid in EXPERIMENTS:
        metrics[f"experiments.{eid}.wall_s"] = sum(
            s.end - s.start for s in spans if s.name == "experiments.run" and s.tag == eid
        )
    by_layer = layer_self_times(spans)
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = by_layer.get(layer, 0.0)
    return metrics
