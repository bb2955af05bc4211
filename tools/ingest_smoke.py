#!/usr/bin/env python
"""CI smoke drill for the streaming-ingest data path.

Runs the acceptance scenario from docs/DATA.md end to end, in a temp dir:

1. Generate a multi-market archive (two regions x two sizes) and write
   it as one timestamp-interleaved AWS-format CSV plus a gzip copy.
2. Stream-ingest both copies with a deliberately tiny chunk size, so the
   spill/flush machinery actually engages, and check the demux bound
   (``peak_buffered_records <= chunk_records``).
3. Memory-map the segment directory back and demand bit-identical
   times/prices against the source catalog, then a byte-identical
   single-market simulation report between the mmap catalog and the
   CSV -> in-memory loader path.
4. Refit calibrations from the mmap catalog (the repro-calibrate path)
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
from repro.runtime.spec import StrategySpec  # noqa: E402
from repro.traces.catalog import MarketKey, TraceCatalog, build_catalog  # noqa: E402
from repro.traces.ingest import ingest_archive, load_segment_catalog  # noqa: E402
from repro.traces.loader import load_aws_csv, save_aws_csv  # noqa: E402
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

        # Byte-identical report: mmap catalog vs CSV -> in-memory loader.
        key = MarketKey(REGIONS[0], SIZES[0])
        solo_csv = root / "solo.csv"
        save_aws_csv(
            source.trace(key), solo_csv,
            instance_type=f"m1.{key.size}", availability_zone=key.region,
        )
        ingest_archive(solo_csv, root / "solo-seg", horizon=HORIZON)
        mem_catalog = TraceCatalog(
            {key: load_aws_csv(solo_csv, horizon=HORIZON)},
            {key: catalog.on_demand_price(key)},
            HORIZON,
        )

        spec = RunSpec(
            strategy=StrategySpec.single(key),
            seed=9,
            horizon_s=HORIZON,
            regions=(key.region,),
            sizes=(key.size,),
            label="ingest-smoke",
        )

        def run(cat):
            return dataclasses.asdict(run_simulation_observed(spec, catalog=cat).result)

        mm = run(load_segment_catalog(root / "solo-seg").restricted([key]))
        mem = run(mem_catalog)
        if mm != mem:
            diffs = [k for k in mem if mem[k] != mm.get(k)]
            fail(f"mmap vs in-memory report mismatch in fields: {diffs}")

        # Refit + persistence round trip off the mmap catalog.
        fitted = fit_catalog(catalog, grid_step_s=900.0)
        cal_path = root / "cals.json"
        save_calibrations(cal_path, fitted)
        if load_calibrations(cal_path) != fitted:
            fail("calibration JSON round trip drifted")

        print(
            f"ingest smoke OK: {report.n_records} records -> {report.n_markets} "
            f"segments (peak buffer {report.peak_buffered_records}/{CHUNK}), "
            f"mmap report byte-identical, {len(fitted)} calibrations refit + round-tripped"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
