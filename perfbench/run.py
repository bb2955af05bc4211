"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

Every repetition runs in a fresh interpreter (``child.py``), so it pays
for catalog builds and caches exactly as a user's invocation does. With
``--trace 0`` repetitions run until their timed phases add up to
``--seconds`` (within :data:`TIMED_CAP_S`), set-up is sampled at least
:data:`MIN_SETUP_SAMPLES` times, and the medians of ``wall_s``, ``cpu_s``,
``setup_s`` and ``peak_rss_mb`` are printed. With ``--trace 1`` one untraced and one traced repetition
run, and the per-layer metrics of the traced one are printed together
with the tracing overhead. The last line of standard output is the JSON
result; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_SAMPLES = 5
#: No repetition after the first starts that would likely take the timed
#: total past this, so a slow host shortens a run instead of stretching it.
TIMED_CAP_S = 35.0
#: No repetition starts that would likely end after this many seconds.
BUDGET_S = 150.0
#: Every interpreter the run starts is killed once this has passed.
HARD_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, workload: str, seed: int, workdir: Path, timeout: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its record.

    The interpreter leads its own process group, so a timeout kills its
    pool workers along with it.
    """
    out = workdir / f"{mode}-{time.monotonic_ns()}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launched = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), repr(launched), str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} {workload} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} {workload} exited {proc.returncode}:\n{stderr[-4000:]}")
    if mode == "import":
        return {}
    record = json.loads(out.read_text())
    out.unlink()
    return record


def count_failures(reps: list) -> tuple:
    """``(attempted, failed)`` over all repetitions.

    An operation fails in a repetition if its check failed there or its
    digest differs from the first repetition's (the program must be
    deterministic across fresh interpreters).
    """
    first = reps[0]["digests"]
    attempted = failed = 0
    for rep in reps:
        bad = set(rep["failed"])
        for op in rep["operations"]:
            attempted += 1
            if op in bad or rep["digests"].get(op) != first.get(op):
                failed += 1
    return attempted, failed


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from layers import END_TO_END, PER_LAYER

    started = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    run_child("import", workload, seed, workdir, remaining())
    reps = [run_child("measure", workload, seed, workdir, remaining())]
    if trace:
        traced = run_child("trace", workload, seed, workdir, remaining())
        layer = traced["layers"]
        layer["bench.traced_wall_s"] = traced["wall_s"]
        layer["bench.untraced_wall_s"] = reps[0]["wall_s"]
        layer["bench.trace_overhead_s"] = traced["wall_s"] - reps[0]["wall_s"]
        reps.append(traced)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        per_rep = time.monotonic() - started
        while time.monotonic() - started + per_rep < BUDGET_S:
            timed = sum(r["wall_s"] for r in reps)
            if timed >= seconds or timed + reps[-1]["wall_s"] > TIMED_CAP_S:
                break
            t0 = time.monotonic()
            reps.append(run_child("measure", workload, seed, workdir, remaining()))
            per_rep = time.monotonic() - t0
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_child("setup", workload, seed, workdir, remaining())["setup_s"])
        values = {name: statistics.median(r[name] for r in reps) for name in END_TO_END}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(
        f"{workload} seed={seed}: {len(reps)} repetition(s), wall_s "
        + " ".join(f"{r['wall_s']:.3f}" for r in reps),
        file=sys.stderr,
    )
    attempted, failed = count_failures(reps)
    errors = [r["error"] for r in reps if r.get("error")]
    for error in errors:
        print(f"workload error: {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_reference(workdir: Path) -> None:
    """Record the default seed's outputs of every workload."""
    from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS

    reference = {}
    for workload in WORKLOADS:
        run_child("import", workload, DEFAULT_SEED, workdir, HARD_LIMIT_S)
        record = run_child("record", workload, DEFAULT_SEED, workdir, HARD_LIMIT_S)
        if record["failed"] or record["error"]:
            raise ChildFailed(f"{workload}: {record['failed'][:5]} {record['error']}")
        reference[workload] = record["reference"]
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument(
        "--write-reference", action="store_true",
        help="record the default seed's outputs into reference.json and exit",
    )
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            write_reference(workdir)
            return 0
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
