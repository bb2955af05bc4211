"""One repetition of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/child.py MODE WORKLOAD SEED LAUNCHED OUT``

``MODE`` is ``import`` (compile the package's bytecode and exit, so no
measurement pays for it), ``setup`` (report ``setup_s`` only), ``measure``
(setup, the timed phase, then the checks), ``trace`` (the same with
per-layer spans) or ``record`` (``measure`` without the reference
comparison, returning the outputs ``reference.json`` keeps). ``LAUNCHED`` is the parent's ``time.time()`` just before
it started this interpreter, so ``setup_s`` counts interpreter start-up,
imports and building the inputs. The result is written to ``OUT`` as JSON.

CPU time and peak RSS include the pool workers: both are read after the
executor's pools are shut down and their processes reaped, from
``RUSAGE_SELF`` plus ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_checkout() -> None:
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")


def stop_pools() -> None:
    """Shut the executor's cached worker pools down and reap the workers.

    The executor keeps its pools across batches and offers no public way
    to close them. ``_shutdown_pools`` is the hook it runs at exit; if a
    later executor drops it, the idle workers are terminated instead.
    """
    from repro.runtime import executor

    shutdown = getattr(executor, "_shutdown_pools", None)
    if shutdown is not None:
        shutdown()
    # The pools' manager threads reap the workers; wait until they have.
    deadline = time.monotonic() + 60
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers still alive after shutdown")
        if shutdown is None:
            for proc in multiprocessing.active_children():
                proc.terminate()
        time.sleep(0.01)


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker this process may have started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def measure(name: str, seed: int, workdir: Path, launched: float, mode: str, tiny: bool = False) -> dict:
    """Set up and (unless ``mode == "setup"``) time one repetition."""
    import layers
    from spans import Tracer
    from workloads import Outcome, Recorder, make_workload

    workload = make_workload(name, seed, workdir, tiny=tiny)
    workload.setup()
    setup_s = time.time() - launched
    if mode == "setup":
        stop_pools()
        return {"setup_s": setup_s}

    outcome = Outcome()
    recorder = Recorder(outcome)
    recorder.install()
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        layers.install(tracer)
        timed = tracer.span("bench.timed", workload.run)
    else:
        timed = workload.run
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    timed(outcome)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()
    recorder.restore()
    stop_pools()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(children1) - _cpu(children0),
        "peak_rss_mb": max(self1.ru_maxrss, children1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        record["layers"] = layers.layer_metrics(
            tracer, outcome.batches, outcome.reports, workload.files()
        )
    digests, failed = workload.check(outcome, compare=mode != "record")
    if mode == "record":
        record["reference"] = workload.reference_entry(digests, outcome)
    workload.cleanup()
    record.update(
        operations=workload.operations(), digests=digests, failed=failed, error=outcome.error
    )
    return record


def main(argv) -> int:
    mode, name, seed, launched, out = argv
    sys.path.insert(0, str(ROOT / "src"))
    _check_checkout()
    if mode == "import":
        import compileall

        compileall.compile_dir(ROOT / "src", quiet=1)
        import workloads  # noqa: F401  (compiles the benchmark's own modules)

        return 0
    out_path = Path(out)
    record = measure(name, int(seed), out_path.parent, float(launched), mode)
    _stop_resource_tracker()
    out_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
