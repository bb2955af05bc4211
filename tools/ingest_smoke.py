#!/usr/bin/env python
"""CI smoke drill for the streaming-ingest data path.

Runs the acceptance scenario from docs/DATA.md end to end, in a temp dir:

1. Generate a multi-market archive (two regions x two sizes) and write
   it as one timestamp-interleaved AWS-format CSV plus a gzip copy.
2. Stream-ingest both copies with a deliberately tiny chunk size, so the
   spill/flush machinery actually engages, and check the demux bound
   (``peak_buffered_records <= chunk_records``).
3. Memory-map the segment directory back and demand bit-identical
   times/prices against the source catalog.
4. Replay the archive the way every run does: specs that name it in
   ``RunSpec.traces``, executed by ``run_batch`` at ``jobs`` 1 and 2
   under the ``event`` and ``auto`` engines. Every result must equal the
   same spec run over the CSV -> in-memory loader catalog, and a
   ledgered batch resumed from its journal must replay every run.
5. Refit calibrations from the mmap catalog (the repro-calibrate path)
   and check the fitted set survives a JSON save/load round trip.

Exits nonzero with a diagnostic on any deviation.

Usage::

    python tools/ingest_smoke.py
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.core.simulation import RunSpec, run_simulation_observed  # noqa: E402
from repro.runtime import StrategySpec, run_batch  # noqa: E402
from repro.traces.catalog import MarketKey, TraceCatalog, build_catalog  # noqa: E402
from repro.traces.ingest import ingest_archive, load_segment_catalog  # noqa: E402
from repro.traces.loader import load_aws_csv  # noqa: E402
from repro.traces.refit import fit_catalog, load_calibrations, save_calibrations  # noqa: E402
from repro.units import days  # noqa: E402

REGIONS = ("us-east-1a", "us-west-1a")
SIZES = ("small", "medium")
HORIZON = days(3)
CHUNK = 64  # tiny on purpose: every flush path runs


def fail(msg: str) -> None:
    print(f"ingest smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-ingest-smoke-") as tmp:
        root = Path(tmp)
        source = build_catalog(42, HORIZON, regions=REGIONS, sizes=SIZES)

        # One interleaved CSV covering all four markets, plus a gzip copy.
        csv_path = root / "archive.csv"
        rows = []
        for key in source.markets():
            trace = source.trace(key)
            for t, p in zip(trace.times, trace.prices):
                rows.append((float(t), f"m1.{key.size}", key.region, float(p)))
        rows.sort()
        import csv as _csv

        from repro.traces.loader import _HEADER, format_aws_timestamp

        with open(csv_path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(_HEADER)
            for t, itype, az, p in rows:
                w.writerow([format_aws_timestamp(t), itype, "Linux/UNIX", az, repr(p)])
        gz_path = root / "archive.csv.gz"
        gz_path.write_bytes(gzip.compress(csv_path.read_bytes()))

        report = ingest_archive(gz_path, root / "seg", horizon=HORIZON, chunk_records=CHUNK)
        if report.n_markets != len(REGIONS) * len(SIZES):
            fail(f"expected {len(REGIONS) * len(SIZES)} markets, ingested {report.n_markets}")
        if report.peak_buffered_records > CHUNK:
            fail(
                f"demux bound violated: peak {report.peak_buffered_records} "
                f"> chunk_records {CHUNK}"
            )

        catalog = load_segment_catalog(root / "seg")
        for key in source.markets():
            src, got = source.trace(key), catalog.trace(key)
            # Timestamps survive the CSV round trip at nanosecond
            # precision; prices (written via repr) survive exactly.
            if not np.allclose(got.times, src.times, rtol=0.0, atol=1e-6):
                fail(f"{key}: times drifted through ingest")
            if not np.array_equal(np.asarray(got.prices), np.asarray(src.prices)):
                fail(f"{key}: prices drifted through ingest")

        # The replay path: each run names the archive and runs through
        # run_batch; the reference is build_stack over the CSV -> in-memory
        # loader catalog, passed as catalog=.
        seg = str((root / "seg").resolve())
        memory = TraceCatalog(
            {
                k: load_aws_csv(csv_path, instance_type=f"m1.{k.size}",
                                availability_zone=k.region, horizon=HORIZON)
                for k in source.markets()
            },
            {k: catalog.on_demand_price(k) for k in source.markets()},
            HORIZON,
        )
        frames = [(StrategySpec.single(k), (k.region,), (k.size,)) for k in source.markets()]
        frames.append((StrategySpec.multi_region(REGIONS), REGIONS, SIZES))
        specs = [
            RunSpec(strategy=strategy, seed=seed, horizon_s=HORIZON, regions=regions,
                    sizes=sizes, traces=seg)
            for seed in (9, 10)
            for strategy, regions, sizes in frames
        ]

        def reports(results):
            return [dataclasses.asdict(r) for r in results]

        want = reports(
            run_simulation_observed(s, catalog=memory.restricted(
                MarketKey(r, z) for r in s.regions for z in s.sizes
            )).result
            for s in specs
        )
        for jobs in (1, 2):
            for engine in ("event", "auto"):
                if reports(run_batch(specs, jobs=jobs, engine=engine).results) != want:
                    fail(f"traces= replay at jobs={jobs}, engine={engine} differs "
                         "from the in-memory catalog run")
        ledger = root / "replay.jsonl"
        run_batch(specs, jobs=2, ledger=ledger)
        resumed = run_batch(specs, ledger=ledger, resume=True)
        if resumed.telemetry.replayed_runs != len(specs) or reports(resumed.results) != want:
            fail(f"ledgered replay resumed {resumed.telemetry.replayed_runs} of "
                 f"{len(specs)} runs, or its results drifted")

        # Refit + persistence round trip off the mmap catalog.
        fitted = fit_catalog(catalog, grid_step_s=900.0)
        cal_path = root / "cals.json"
        save_calibrations(cal_path, fitted)
        if load_calibrations(cal_path) != fitted:
            fail("calibration JSON round trip drifted")

        print(
            f"ingest smoke OK: {report.n_records} records -> {report.n_markets} "
            f"segments (peak buffer {report.peak_buffered_records}/{CHUNK}), "
            f"{len(specs)} replayed runs identical at jobs 1/2, event/auto and on "
            f"resume, {len(fitted)} calibrations refit + round-tripped"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
