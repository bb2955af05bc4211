"""Streaming ingestion and mmap-compiled segments (repro.traces.ingest).

The contracts pinned here are the module's whole point:

* segment files round-trip traces exactly (bit-identical times/prices);
* an mmap-loaded trace answers every query identically to the in-memory
  build (same CompiledTrace results, adopted bounds and all);
* corrupt/truncated/foreign files raise clean TraceFormatError;
* each ingested market with a calibration is validated against it;
* the demux pass's peak memory is bounded by ``chunk_records`` and is
  independent of archive size and market count;
* a simulation run off an mmap catalog produces a byte-identical report
  to the CSV -> in-memory path, on every engine.
"""

import gzip
import json
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.traces.calibration import calibration_for
from repro.traces.catalog import MarketKey, build_catalog
from repro.traces.generator import generate_trace
from repro.traces.ingest import (
    DEFAULT_HORIZON_PAD_S,
    MANIFEST_NAME,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    ingest_archive,
    load_segment_catalog,
    read_segment,
    write_segment,
)
from repro.traces.loader import load_aws_csv, save_aws_csv
from repro.traces.trace import PriceTrace
from repro.units import days, hours


def _trace(seed: int = 0, n: int = 40, horizon: float = days(2)) -> PriceTrace:
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, horizon - 3600.0, size=n))
    times[0] = 0.0
    prices = rng.uniform(0.01, 0.3, size=n)
    return PriceTrace(times, prices, horizon, market="small", region="us-east-1a")


def _write_archive(path, traces_by_market, epoch_offset=0.0):
    """One CSV with every market's records interleaved by timestamp."""
    rows = []
    for (az, itype), trace in traces_by_market.items():
        for t, p in zip(trace.times, trace.prices):
            rows.append((float(t), itype, az, float(p)))
    rows.sort()
    with open(path, "w", newline="") as fh:
        from repro.traces.loader import _HEADER, format_aws_timestamp
        import csv

        w = csv.writer(fh)
        w.writerow(_HEADER)
        for t, itype, az, p in rows:
            w.writerow(
                [format_aws_timestamp(t + epoch_offset), itype, "Linux/UNIX", az, repr(p)]
            )


# ------------------------------------------------------------ segment files
def test_segment_roundtrip_bit_identical(tmp_path):
    trace = _trace(1)
    path = tmp_path / "m.seg"
    nbytes = write_segment(path, trace, 0.06)
    assert path.stat().st_size == nbytes
    loaded, od = read_segment(path)
    assert od == 0.06
    assert loaded.horizon == trace.horizon
    assert loaded.region == "us-east-1a"
    assert np.array_equal(np.asarray(loaded.times), np.asarray(trace.times))
    assert np.array_equal(np.asarray(loaded.prices), np.asarray(trace.prices))


def test_mmap_queries_match_in_memory(tmp_path):
    """Every query over the mmap-loaded trace is bit-identical to the
    in-memory compiled plan — the format's core contract."""
    trace = _trace(2, n=120, horizon=days(3))
    path = tmp_path / "m.seg"
    write_segment(path, trace, 0.06)
    mapped, _ = read_segment(path)

    mem = trace.compiled
    mm = mapped.compiled
    probes = np.linspace(0.0, trace.horizon - 1.0, 257)
    for t in probes:
        assert mm.price_at(float(t)) == mem.price_at(float(t))
    for a, b in zip(probes[:-1], probes[1:]):
        assert mm.max_price(float(a), float(b)) == mem.max_price(float(a), float(b))
        assert mm.mean_price(float(a), float(b)) == mem.mean_price(float(a), float(b))
    for bid in (0.02, 0.06, 0.11, 0.24):
        assert np.array_equal(mm.crossings_above(bid), mem.crossings_above(bid))


def test_read_segment_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.seg"
    write_segment(path, _trace(3), 0.06)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTASEGM"
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="bad magic"):
        read_segment(path)


def test_read_segment_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.seg"
    write_segment(path, _trace(4), 0.06)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", SEGMENT_VERSION + 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="unsupported segment version"):
        read_segment(path)


@pytest.mark.parametrize("keep", [0, 4, 20, 39, 80])
def test_read_segment_rejects_truncation(tmp_path, keep):
    path = tmp_path / "m.seg"
    write_segment(path, _trace(5), 0.06)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(TraceFormatError):
        read_segment(path)


def test_read_segment_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "m.seg"
    write_segment(path, _trace(6), 0.06)
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(TraceFormatError, match="expected"):
        read_segment(path)


def test_read_segment_rejects_corrupt_metadata(tmp_path):
    path = tmp_path / "m.seg"
    write_segment(path, _trace(7), 0.06)
    raw = bytearray(path.read_bytes())
    # Stomp the JSON metadata region (starts after the fixed header + u32).
    start = struct.calcsize("<8sIIQdd") + 4
    raw[start : start + 4] = b"\xff\xfe\x00\x01"
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="corrupt segment metadata"):
        read_segment(path)


def test_write_segment_rejects_nonpositive_od(tmp_path):
    with pytest.raises(TraceFormatError, match="on-demand"):
        write_segment(tmp_path / "m.seg", _trace(8), 0.0)


# ----------------------------------------------------------------- ingestion
def test_ingest_matches_in_memory_loader(tmp_path):
    """CSV -> ingest -> mmap equals CSV -> load_aws_csv, bit for bit."""
    trace = _trace(9, n=60)
    csv_path = tmp_path / "one.csv"
    save_aws_csv(trace, csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    report = ingest_archive(csv_path, tmp_path / "seg", horizon=trace.horizon)
    assert report.n_markets == 1
    assert report.markets == (("us-east-1a", "small"),)

    catalog = load_segment_catalog(tmp_path / "seg")
    key = MarketKey("us-east-1a", "small")
    mem = load_aws_csv(csv_path, horizon=trace.horizon)
    mm = catalog.trace(key)
    assert np.array_equal(np.asarray(mm.times), np.asarray(mem.times))
    assert np.array_equal(np.asarray(mm.prices), np.asarray(mem.prices))
    assert mm.horizon == mem.horizon


def test_ingest_demuxes_markets_and_rebases(tmp_path):
    offset = 1.4e9
    tr_a = _trace(10, n=30)
    tr_b = _trace(11, n=25)
    archive = tmp_path / "multi.csv"
    _write_archive(
        archive,
        {("us-east-1a", "m1.small"): tr_a, ("us-west-1a", "m1.large"): tr_b},
        epoch_offset=offset,
    )
    report = ingest_archive(archive, tmp_path / "seg")
    assert report.n_markets == 2
    assert report.epoch_offset == pytest.approx(offset, abs=1.0)
    catalog = load_segment_catalog(tmp_path / "seg")
    keys = {(k.region, k.size) for k in catalog.markets()}
    assert keys == {("us-east-1a", "small"), ("us-west-1a", "large")}
    # All markets share one clock: the archive's earliest record is t=0.
    first = min(float(catalog.trace(k).times[0]) for k in catalog.markets())
    assert first == 0.0
    assert catalog.horizon == pytest.approx(report.horizon)


def test_restricted_segment_catalog_keeps_source(tmp_path):
    """A restricted view of an mmap catalog still names its segment
    directory (``repro-simulate --segments`` simulates on such a view)."""
    archive = tmp_path / "multi.csv"
    _write_archive(
        archive,
        {("us-east-1a", "m1.small"): _trace(10, n=30), ("us-west-1a", "m1.large"): _trace(11)},
    )
    ingest_archive(archive, tmp_path / "seg")
    catalog = load_segment_catalog(tmp_path / "seg")
    key = MarketKey("us-east-1a", "small")
    view = catalog.restricted([key])
    assert catalog.source is not None
    assert view.source == catalog.source
    assert view.markets() == [key]
    assert view.trace(key) is catalog.trace(key)


def test_ingest_gzip_archive(tmp_path):
    trace = _trace(12, n=20)
    plain = tmp_path / "a.csv"
    save_aws_csv(trace, plain, instance_type="m1.small",
                 availability_zone="us-east-1a")
    gz = tmp_path / "a.csv.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    report = ingest_archive(gz, tmp_path / "seg", horizon=trace.horizon)
    assert report.n_records == len(trace)


def test_ingest_multiple_sources_merge(tmp_path):
    """Two archive files covering different spans of one market merge into
    a single sorted segment."""
    rng = np.random.default_rng(13)
    times = np.sort(rng.uniform(0.0, hours(40), size=50))
    times[0] = 0.0
    prices = rng.uniform(0.01, 0.2, size=50)
    full = PriceTrace(times, prices, hours(48), market="small", region="us-east-1a")
    t1 = PriceTrace(times[:30], prices[:30], hours(48), market="small", region="us-east-1a")
    t2 = PriceTrace(times[30:] - times[30], prices[30:],
                    float(times[-1] - times[30]) + 3600.0, market="small",
                    region="us-east-1a")
    p1, p2 = tmp_path / "part1.csv", tmp_path / "part2.csv"
    save_aws_csv(t1, p1, instance_type="m1.small", availability_zone="us-east-1a")
    save_aws_csv(t2, p2, instance_type="m1.small", availability_zone="us-east-1a",
                 epoch_offset=float(times[30]))
    ingest_archive([p1, p2], tmp_path / "seg", horizon=hours(48))
    got = load_segment_catalog(tmp_path / "seg").trace(MarketKey("us-east-1a", "small"))
    # Timestamps survive the CSV round trip at nanosecond precision
    # (prices use repr and survive exactly).
    assert np.allclose(np.asarray(got.times), times, rtol=0.0, atol=1e-6)
    assert np.array_equal(np.asarray(got.prices), prices)


def test_ingest_drops_duplicate_timestamps_keep_last(tmp_path):
    archive = tmp_path / "dups.csv"
    from repro.traces.loader import _HEADER, format_aws_timestamp
    import csv

    with open(archive, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_HEADER)
        for t, p in [(0.0, 0.05), (100.0, 0.07), (100.0, 0.09), (200.0, 0.06)]:
            w.writerow([format_aws_timestamp(t), "m1.small", "Linux/UNIX",
                        "us-east-1a", repr(p)])
    report = ingest_archive(archive, tmp_path / "seg")
    assert report.duplicates_dropped == 1
    got = load_segment_catalog(tmp_path / "seg").trace(MarketKey("us-east-1a", "small"))
    assert np.array_equal(np.asarray(got.times), [0.0, 100.0, 200.0])
    assert np.array_equal(np.asarray(got.prices), [0.05, 0.09, 0.06])


def test_ingest_default_horizon_pads_past_last_record(tmp_path):
    trace = _trace(14, n=10)
    csv_path = tmp_path / "a.csv"
    save_aws_csv(trace, csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    report = ingest_archive(csv_path, tmp_path / "seg")
    assert report.horizon == pytest.approx(float(trace.times[-1]) + DEFAULT_HORIZON_PAD_S)


def test_ingest_rejects_horizon_before_last_record(tmp_path):
    trace = _trace(15, n=10)
    csv_path = tmp_path / "a.csv"
    save_aws_csv(trace, csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    with pytest.raises(TraceFormatError, match="horizon"):
        ingest_archive(csv_path, tmp_path / "seg", horizon=1.0)


def test_ingest_refuses_a_directory_that_holds_an_archive(tmp_path):
    """A replay names its archive by directory, so a directory holds one
    archive for its lifetime: re-ingesting into it is refused."""
    csv_path = tmp_path / "a.csv"
    save_aws_csv(_trace(15, n=10), csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    ingest_archive(csv_path, tmp_path / "seg")
    manifest = (tmp_path / "seg" / MANIFEST_NAME).read_bytes()
    with pytest.raises(ConfigurationError, match="already holds"):
        ingest_archive(csv_path, tmp_path / "seg")
    assert (tmp_path / "seg" / MANIFEST_NAME).read_bytes() == manifest


def test_ingest_rejects_empty_archive(tmp_path):
    archive = tmp_path / "empty.csv"
    from repro.traces.loader import _HEADER
    archive.write_text(",".join(_HEADER) + "\n")
    with pytest.raises(TraceFormatError, match="no records"):
        ingest_archive(archive, tmp_path / "seg")


def test_ingest_od_override_chain(tmp_path):
    """Explicit od_prices win over the calibration tables; unknown markets
    fall back to the median heuristic."""
    tr = _trace(16, n=12)
    archive = tmp_path / "odd.csv"
    _write_archive(
        archive,
        {("us-east-1a", "m1.small"): tr, ("ap-south-1z", "c9.exotic"): tr},
    )
    ingest_archive(archive, tmp_path / "seg", od_prices={("us-east-1a", "m1.small"): 0.5})
    catalog = load_segment_catalog(tmp_path / "seg")
    assert catalog.on_demand_price(MarketKey("us-east-1a", "small")) == 0.5
    # "exotic" is not a known size suffix, so the full type name is the key.
    exotic = MarketKey("ap-south-1z", "c9.exotic")
    # 4x the median observed price, the documented heuristic.
    assert catalog.on_demand_price(exotic) == pytest.approx(
        4.0 * float(np.median(np.asarray(tr.prices)))
    )


def test_ingest_validates_each_calibrated_market(tmp_path, capsys):
    """Each market with a calibration is validated against it: the same
    archive in cents instead of dollars fails, a market with no
    calibration is skipped, and the CLI prints the failing report to
    stderr. The manifest records none of it and the exit code stays 0."""
    from repro.traces.ingest import main as ingest_main

    good = generate_trace(calibration_for("us-east-1a", "small"), days(30), seed=3)
    cents = PriceTrace(good.times, np.asarray(good.prices) * 100.0, good.horizon)
    archive = tmp_path / "mixed.csv"
    _write_archive(
        archive,
        {
            ("us-east-1a", "m1.small"): good,
            ("us-west-1a", "m1.small"): cents,
            ("ap-south-1z", "m1.small"): good,
        },
    )
    report = ingest_archive(archive, tmp_path / "seg")
    assert [(v.market, v.ok) for v in report.validation] == [
        ("us-east-1a/m1.small", True),
        ("us-west-1a/m1.small", False),
    ]
    manifest = json.loads((tmp_path / "seg" / MANIFEST_NAME).read_text())
    assert set(manifest) == {
        "format", "version", "horizon", "epoch_offset", "records",
        "duplicates_dropped", "markets",
    }

    assert ingest_main([str(archive), "-o", str(tmp_path / "seg2")]) == 0
    err = capsys.readouterr().err
    assert "validation of us-west-1a/m1.small: FAIL" in err
    assert "[FAIL] calm price level ($/hr)" in err
    assert "us-east-1a" not in err


def test_load_segment_catalog_rejects_non_segment_dir(tmp_path):
    with pytest.raises(TraceFormatError, match=MANIFEST_NAME):
        load_segment_catalog(tmp_path)


def test_load_segment_catalog_rejects_bad_manifest_version(tmp_path):
    trace = _trace(17, n=8)
    csv_path = tmp_path / "a.csv"
    save_aws_csv(trace, csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    ingest_archive(csv_path, tmp_path / "seg")
    manifest = json.loads((tmp_path / "seg" / MANIFEST_NAME).read_text())
    manifest["version"] = 99
    (tmp_path / "seg" / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(TraceFormatError, match="unsupported manifest version"):
        load_segment_catalog(tmp_path / "seg")


def test_ingest_spill_dir_cleaned_up(tmp_path):
    trace = _trace(18, n=30)
    csv_path = tmp_path / "a.csv"
    save_aws_csv(trace, csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    ingest_archive(csv_path, tmp_path / "seg", chunk_records=7)
    assert not (tmp_path / "seg" / ".spill").exists()


# ----------------------------------------------------- bounded-memory demux
def test_ingest_peak_memory_independent_of_archive_size(tmp_path):
    """The acceptance bound: a >=100-market archive demuxes with peak
    buffering capped by chunk_records, not by archive size. Doubling the
    archive must not grow the reported peak, and tracemalloc confirms the
    Python-heap peak stays in the chunk regime rather than the
    whole-archive regime."""
    import tracemalloc

    rng = np.random.default_rng(19)

    def _archive(path, n_markets, rows_per_market):
        from repro.traces.loader import _HEADER, format_aws_timestamp
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_HEADER)
            for m in range(n_markets):
                az = f"zz-test-{m % 7}z"
                itype = f"t{m}.synthetic"
                t = np.sort(rng.uniform(0.0, hours(24), size=rows_per_market))
                p = rng.uniform(0.01, 0.2, size=rows_per_market)
                for ti, pi in zip(t, p):
                    w.writerow([format_aws_timestamp(float(ti)), itype,
                                "Linux/UNIX", az, repr(float(pi))])

    small, big = tmp_path / "small.csv", tmp_path / "big.csv"
    _archive(small, 100, 20)   # 2 000 records over 100 markets
    _archive(big, 100, 40)     # 4 000 records over the same markets
    chunk = 500

    r_small = ingest_archive(small, tmp_path / "seg_small", chunk_records=chunk)
    assert r_small.n_markets == 100

    tracemalloc.start()
    r_big = ingest_archive(big, tmp_path / "seg_big", chunk_records=chunk)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert r_big.n_records == 2 * r_small.n_records
    # The demux buffer bound: flushes trigger at the chunk size, so the
    # peak buffered count never exceeds chunk_records regardless of size.
    assert r_small.peak_buffered_records <= chunk
    assert r_big.peak_buffered_records <= chunk
    # Heap peak is in the one-chunk-plus-one-market regime (generous 8x
    # slack for interpreter noise), far below the ~4000-record archive.
    per_record = 2 * 8 * 8  # two floats per record, ~8x object overhead
    assert peak_bytes < 8 * chunk * per_record

    catalog = load_segment_catalog(tmp_path / "seg_big")
    assert len(catalog.markets()) == 100


# ----------------------------------------- simulation-report identity (mmap)
@pytest.mark.parametrize("engine", ["event", "auto"])
def test_mmap_catalog_report_identical_to_in_memory(tmp_path, engine):
    """A simulation off the mmap catalog produces a byte-identical report
    to the CSV -> in-memory path, on every engine (``auto`` replays on
    the vector scheduler, as ``repro-simulate --segments`` does)."""
    import dataclasses as dc

    from repro.core.simulation import RunSpec, run_simulation_observed
    from repro.runtime.spec import StrategySpec
    from repro.traces.catalog import TraceCatalog

    horizon = days(2)
    source = build_catalog(23, horizon, regions=("us-east-1a",), sizes=("small",))
    key = MarketKey("us-east-1a", "small")
    csv_path = tmp_path / "a.csv"
    save_aws_csv(source.trace(key), csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    ingest_archive(csv_path, tmp_path / "seg", horizon=horizon)

    mem_trace = load_aws_csv(csv_path, horizon=horizon)
    mem_catalog = TraceCatalog({key: mem_trace}, {key: 0.06}, horizon)
    mm_catalog = load_segment_catalog(tmp_path / "seg").restricted([key])

    one_engine = "vector" if engine == "auto" else "event"

    spec = RunSpec(
        strategy=StrategySpec.single(key),
        seed=5,
        horizon_s=horizon,
        regions=("us-east-1a",),
        sizes=("small",),
        label="ingest-identity",
    )

    def _run(catalog):
        observed = run_simulation_observed(spec, engine=one_engine, catalog=catalog)
        assert observed.engine_kind == one_engine
        return dc.asdict(observed.result)

    assert _run(mm_catalog) == _run(mem_catalog)
