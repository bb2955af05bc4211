"""Bulk AWS-archive ingestion: streaming demux into mmap-compiled segments.

The paper seeds every experiment with real ``DescribeSpotPriceHistory``
archives spanning hundreds of (availability zone, instance type) markets.
:func:`repro.traces.loader.load_aws_csv` reads one market's CSV fully into
Python lists — fine for a single trace, hopeless for a multi-GB archive.
This module is the production path:

* :func:`ingest_archive` streams any number of CSV/gzip archives through
  :func:`~repro.traces.loader.iter_aws_rows`, demultiplexing records per
  market into binary spill files and flushing whenever the in-memory
  buffer reaches ``chunk_records`` rows — peak memory is bounded by the
  chunk size plus the largest *single* market, independent of how many
  markets or gigabytes the archive holds;
* each market is then compiled (sorted, duplicate timestamps dropped
  keep-last, rebased onto a common archive clock) into a **compiled
  segment file**: a versioned binary header followed by the contiguous
  little-endian float64 ``times``, ``prices`` and segment ``bounds``
  arrays a :class:`~repro.traces.compiled.CompiledTrace` needs;
* :func:`load_segment_catalog` memory-maps every segment back into a
  :class:`~repro.traces.catalog.TraceCatalog` without copying a byte —
  the stored bounds array is adopted by the compiled query plan, and the
  catalog's ``source`` attribute records the directory it maps.

Query results over an mmap-loaded catalog are bit-identical to the
CSV→in-memory path (``tests/traces/test_ingest.py`` enforces this with
exact comparisons, and the golden corpus pins full simulation reports).

Segment file format (version 1, little-endian)::

    offset  size  field
    0       8     magic  b"REPROSEG"
    8       4     u32    format version (1)
    12      4     u32    header_bytes: file offset of the float payload
    16      8     u64    n: number of change points
    24      8     f64    horizon (seconds, trace frame)
    32      8     f64    on-demand price (USD/hour)
    40      4     u32    meta_len
    44      -     UTF-8 JSON {"region", "size", "instance_type"}
    ...     -     zero padding to an 8-byte boundary (= header_bytes)
    then    8n    f64[n]    times
    +8n     8n    f64[n]    prices
    +8n     8n+8  f64[n+1]  bounds (= times + [horizon])

Truncated files, wrong magic and unknown versions all raise a clean
:class:`~repro.errors.TraceFormatError` before any NumPy mapping happens.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, TextIO, Tuple

import numpy as np

from repro.errors import CalibrationError, ConfigurationError, TraceFormatError, cli_main
from repro.traces.calibration import DEFAULT_CALIBRATIONS, SIZES, on_demand_price
from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.loader import _open_for_read, iter_aws_rows
from repro.traces.trace import PriceTrace
from repro.traces.validation import ValidationReport, validate_trace

__all__ = [
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "MANIFEST_NAME",
    "IngestReport",
    "write_segment",
    "read_segment",
    "ingest_archive",
    "load_segment_catalog",
]

SEGMENT_MAGIC = b"REPROSEG"
SEGMENT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Fixed-size header prefix: magic, version, header_bytes, n, horizon, od.
_FIXED = struct.Struct("<8sIIQdd")

#: Little-endian float64 — the on-disk dtype of every payload array.
_F8 = np.dtype("<f8")

#: Records buffered in memory before the demux flushes every market's
#: buffer to its spill file. ~32 MB of Python floats at the default.
DEFAULT_CHUNK_RECORDS = 200_000

#: Horizon padding past the last record of the archive (mirrors
#: :func:`~repro.traces.loader.load_aws_csv`'s one-hour default).
DEFAULT_HORIZON_PAD_S = 3600.0

#: On-demand heuristic when a market is not in the calibration tables and
#: no explicit price was supplied: the paper's 4x bid-cap anchor over the
#: market's median observed spot price.
DEFAULT_OD_MULTIPLE = 4.0


# ----------------------------------------------------------- segment files
def write_segment(path: str | Path, trace: PriceTrace, on_demand: float) -> int:
    """Write one market's compiled segment file; returns bytes written."""
    if on_demand <= 0:
        raise TraceFormatError(f"on-demand price must be positive, got {on_demand}")
    path = Path(path)
    n = len(trace)
    meta = json.dumps(
        {"region": trace.region, "size": trace.market, "instance_type": trace.market},
        sort_keys=True,
    ).encode("utf-8")
    raw_header = _FIXED.size + 4 + len(meta)
    header_bytes = (raw_header + 7) & ~7  # pad to an 8-byte boundary
    times = np.ascontiguousarray(trace.times, dtype=_F8)
    prices = np.ascontiguousarray(trace.prices, dtype=_F8)
    bounds = np.concatenate([times, [trace.horizon]]).astype(_F8, copy=False)
    with open(path, "wb") as fh:
        fh.write(
            _FIXED.pack(
                SEGMENT_MAGIC, SEGMENT_VERSION, header_bytes, n, trace.horizon, float(on_demand)
            )
        )
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(b"\x00" * (header_bytes - raw_header))
        fh.write(times.tobytes())
        fh.write(prices.tobytes())
        fh.write(bounds.tobytes())
    return header_bytes + (3 * n + 1) * 8


def read_segment(path: str | Path) -> Tuple[PriceTrace, float]:
    """Memory-map one compiled segment file back into a trace.

    Returns ``(trace, on_demand_price)``. The trace's ``times``/``prices``
    and its compiled plan's ``bounds`` are read-only views over the mapped
    file — no float is copied, and pages load lazily on first query.

    Raises
    ------
    TraceFormatError
        On wrong magic, an unknown format version, a truncated or
        size-inconsistent file, or corrupt header metadata.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise TraceFormatError(f"cannot stat segment file {path}: {exc}") from exc
    with open(path, "rb") as fh:
        head = fh.read(_FIXED.size)
        if len(head) < _FIXED.size:
            raise TraceFormatError(f"{path.name}: truncated segment header")
        magic, version, header_bytes, n, horizon, od = _FIXED.unpack(head)
        if magic != SEGMENT_MAGIC:
            raise TraceFormatError(f"{path.name}: bad magic {magic!r}; not a segment file")
        if version != SEGMENT_VERSION:
            raise TraceFormatError(
                f"{path.name}: unsupported segment version {version} (want {SEGMENT_VERSION})"
            )
        meta_raw = fh.read(4)
        if len(meta_raw) < 4:
            raise TraceFormatError(f"{path.name}: truncated segment header")
        (meta_len,) = struct.unpack("<I", meta_raw)
        if _FIXED.size + 4 + meta_len > header_bytes or header_bytes > size:
            raise TraceFormatError(f"{path.name}: header_bytes inconsistent with metadata")
        meta_bytes = fh.read(meta_len)
        if len(meta_bytes) < meta_len:
            raise TraceFormatError(f"{path.name}: truncated segment header")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path.name}: corrupt segment metadata") from exc
    if n < 1:
        raise TraceFormatError(f"{path.name}: segment must contain at least one point")
    expected = header_bytes + (3 * n + 1) * 8
    if size != expected:
        raise TraceFormatError(
            f"{path.name}: expected {expected} bytes for n={n}, found {size} (truncated?)"
        )
    payload = np.memmap(path, dtype=_F8, mode="r", offset=header_bytes, shape=(3 * n + 1,))
    times = payload[:n]
    prices = payload[n : 2 * n]
    bounds = payload[2 * n :]
    trace = PriceTrace(
        times,
        prices,
        horizon,
        market=str(meta.get("size", "")),
        region=str(meta.get("region", "")),
        bounds=bounds,
    )
    return trace, float(od)


# ------------------------------------------------------------------ ingest
@dataclass(frozen=True)
class IngestReport:
    """Summary of one :func:`ingest_archive` run."""

    out_dir: str
    n_markets: int
    n_records: int
    duplicates_dropped: int
    horizon: float
    epoch_offset: float  #: epoch seconds subtracted from every timestamp
    peak_buffered_records: int
    markets: Tuple[Tuple[str, str], ...]  #: (region, size) catalog keys
    #: One report per ingested market that has a calibration, in market
    #: order: the archive checked against that calibration. Not persisted.
    validation: Tuple[ValidationReport, ...] = ()


def _size_key(instance_type: str) -> str:
    """Catalog size key of an instance type (``m1.small`` -> ``small``)."""
    suffix = instance_type.rsplit(".", 1)[-1]
    return suffix if suffix in SIZES else instance_type


def _resolve_od(
    az: str,
    itype: str,
    size: str,
    prices: np.ndarray,
    od_prices: Optional[Mapping],
) -> float:
    """On-demand price: explicit mapping, calibration table, then heuristic."""
    if od_prices:
        for key in ((az, itype), itype, (az, size), size):
            if key in od_prices:
                return float(od_prices[key])
    try:
        return on_demand_price(az, size)
    except CalibrationError:
        return DEFAULT_OD_MULTIPLE * float(np.median(prices))


def ingest_archive(
    sources: Iterable[str | Path | TextIO] | str | Path | TextIO,
    out_dir: str | Path,
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    horizon: Optional[float] = None,
    horizon_pad_s: float = DEFAULT_HORIZON_PAD_S,
    od_prices: Optional[Mapping] = None,
    rebase_to_zero: bool = True,
) -> IngestReport:
    """Stream multi-market AWS archives into a compiled segment directory.

    Parameters
    ----------
    sources:
        One or more archive paths (plain or gzip CSV) or open text streams.
    out_dir:
        Destination directory; created if needed. Receives one ``.seg``
        file per (availability zone, instance type) market plus a
        ``manifest.json`` describing the catalog. A directory that holds
        a manifest is refused: replays name an archive by its directory.
    chunk_records:
        Records buffered in memory before every market buffer is flushed
        to its spill file — the knob that bounds peak demux memory.
    horizon:
        Catalog horizon in the compiled trace frame. Defaults to the span
        of the archive plus ``horizon_pad_s``; must be strictly past the
        last (rebased) record.
    od_prices:
        Optional on-demand price overrides, keyed by ``(az, instance
        type)``, instance type, ``(az, size)`` or size. Markets absent
        here fall back to the calibration tables when the (az, size) pair
        is known, else to ``DEFAULT_OD_MULTIPLE`` times the market's
        median observed price.
    rebase_to_zero:
        Shift every market onto a common clock starting at the archive's
        first record (what the simulator expects). All markets share one
        offset, so cross-market alignment is preserved exactly.

    Every market with a calibration (``DEFAULT_CALIBRATIONS``) is
    checked against it with :func:`~repro.traces.validation.validate_trace`
    and the reports land on :attr:`IngestReport.validation`; a failing
    report flags an archive in the wrong units or a mislabeled market. It
    does not stop the ingest, and nothing of it is written to disk.

    Memory guarantee: the demux pass holds at most ``chunk_records``
    buffered rows; the compile pass materialises one market at a time.
    Peak usage is therefore independent of the archive's total size and
    market count (asserted in ``tests/traces/test_ingest.py``).
    """
    if chunk_records < 1:
        raise TraceFormatError("chunk_records must be >= 1")
    if isinstance(sources, (str, Path)) or hasattr(sources, "read"):
        sources = [sources]
    out = Path(out_dir)
    if (out / MANIFEST_NAME).exists():
        raise ConfigurationError(
            f"{out} already holds an ingested archive; ingest into a new directory"
        )
    out.mkdir(parents=True, exist_ok=True)
    spill_dir = out / ".spill"
    spill_dir.mkdir(exist_ok=True)

    buffers: Dict[Tuple[str, str], List[float]] = {}
    spill_ids: Dict[Tuple[str, str], int] = {}
    counts: Dict[Tuple[str, str], int] = {}
    buffered = 0
    peak_buffered = 0
    total = 0
    t_min = np.inf
    t_max = -np.inf

    def _spill_path(key: Tuple[str, str]) -> Path:
        sid = spill_ids.setdefault(key, len(spill_ids))
        return spill_dir / f"{sid}.bin"

    def _flush() -> None:
        nonlocal buffered
        for key, buf in buffers.items():
            if not buf:
                continue
            with open(_spill_path(key), "ab") as fh:
                fh.write(np.asarray(buf, dtype=_F8).tobytes())
            buf.clear()
        buffered = 0

    try:
        for source in sources:
            fh, should_close = _open_for_read(source)
            try:
                for t, itype, az, price in iter_aws_rows(fh):
                    key = (az, itype)
                    buffers.setdefault(key, []).extend((t, price))
                    counts[key] = counts.get(key, 0) + 1
                    buffered += 1
                    total += 1
                    if t < t_min:
                        t_min = t
                    if t > t_max:
                        t_max = t
                    if buffered >= chunk_records:
                        peak_buffered = max(peak_buffered, buffered)
                        _flush()
            finally:
                if should_close:
                    fh.close()
        peak_buffered = max(peak_buffered, buffered)
        _flush()

        if not counts:
            raise TraceFormatError("archive contains no records")

        offset = float(t_min) if rebase_to_zero else 0.0
        span_end = float(t_max) - offset
        final_horizon = span_end + horizon_pad_s if horizon is None else float(horizon)
        if final_horizon <= span_end:
            raise TraceFormatError(
                f"horizon {final_horizon} is not after the archive's last "
                f"(rebased) record at {span_end}"
            )

        # Catalog size keys: the instance type's suffix when unambiguous
        # within its zone (m1.small -> small), else the full type name.
        raw_sizes = {key: _size_key(key[1]) for key in counts}
        collisions = {}
        for (az, itype), sz in raw_sizes.items():
            collisions.setdefault((az, sz), []).append(itype)
        size_of = {
            key: (sz if len(collisions[(key[0], sz)]) == 1 else key[1])
            for key, sz in raw_sizes.items()
        }

        dup_dropped = 0
        manifest_markets = []
        catalog_keys: List[Tuple[str, str]] = []
        validation: List[ValidationReport] = []
        for key in sorted(counts):
            az, itype = key
            data = np.fromfile(_spill_path(key), dtype=_F8).reshape(-1, 2)
            order = np.argsort(data[:, 0], kind="stable")
            times = data[order, 0]
            prices = data[order, 1]
            keep = np.concatenate([np.diff(times) > 0, [True]])
            dup_dropped += int(times.shape[0] - keep.sum())
            times, prices = times[keep], prices[keep]
            times = times - offset
            size = size_of[key]
            od = _resolve_od(az, itype, size, prices, od_prices)
            trace = PriceTrace(times, prices, final_horizon, market=itype, region=az)
            cal = DEFAULT_CALIBRATIONS.get((az, size))
            if cal is not None:
                validation.append(validate_trace(trace, cal))
            fname = f"{az}__{itype}.seg"
            write_segment(out / fname, trace, od)
            _spill_path(key).unlink()
            manifest_markets.append(
                {
                    "region": az,
                    "size": size,
                    "instance_type": itype,
                    "file": fname,
                    "n": len(trace),
                    "on_demand": od,
                }
            )
            catalog_keys.append((az, size))
    finally:
        for leftover in spill_dir.glob("*.bin"):
            leftover.unlink()
        try:
            spill_dir.rmdir()
        except OSError:  # pragma: no cover - non-empty on a hard failure
            pass

    manifest = {
        "format": "repro-segment-dir",
        "version": SEGMENT_VERSION,
        "horizon": final_horizon,
        "epoch_offset": offset,
        "records": total,
        "duplicates_dropped": dup_dropped,
        "markets": manifest_markets,
    }
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return IngestReport(
        out_dir=str(out),
        n_markets=len(manifest_markets),
        n_records=total,
        duplicates_dropped=dup_dropped,
        horizon=final_horizon,
        epoch_offset=offset,
        peak_buffered_records=peak_buffered,
        markets=tuple(catalog_keys),
        validation=tuple(validation),
    )


def load_segment_catalog(segment_dir: str | Path) -> TraceCatalog:
    """Memory-map an ingested segment directory into a trace catalog.

    Every trace's arrays (and its compiled plan's bounds) are zero-copy
    views over the segment files; the returned catalog carries the
    directory as its ``source``.
    """
    seg_dir = Path(segment_dir)
    manifest_path = seg_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise TraceFormatError(f"no {MANIFEST_NAME} in {seg_dir}; not a segment directory")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"corrupt {manifest_path}") from exc
    if manifest.get("format") != "repro-segment-dir":
        raise TraceFormatError(f"{manifest_path}: not a segment-directory manifest")
    if manifest.get("version") != SEGMENT_VERSION:
        raise TraceFormatError(
            f"{manifest_path}: unsupported manifest version {manifest.get('version')!r}"
        )
    horizon = float(manifest["horizon"])
    traces: Dict[MarketKey, PriceTrace] = {}
    od: Dict[MarketKey, float] = {}
    for entry in manifest.get("markets", []):
        key = MarketKey(region=str(entry["region"]), size=str(entry["size"]))
        trace, seg_od = read_segment(seg_dir / str(entry["file"]))
        if trace.horizon != horizon:
            raise TraceFormatError(
                f"{entry['file']}: horizon {trace.horizon} != manifest horizon {horizon}"
            )
        traces[key] = trace
        od[key] = seg_od
    if not traces:
        raise TraceFormatError(f"{manifest_path}: manifest lists no markets")
    return TraceCatalog(traces, od, horizon, source=str(seg_dir.resolve()))


# --------------------------------------------------------------- module CLI
@cli_main
def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.traces.ingest ARCHIVE [ARCHIVE...] -o DIR``.

    Each failing validation report is printed to stderr; the archive is
    still ingested and the exit code stays 0.
    """
    import argparse

    p = argparse.ArgumentParser(
        prog="python -m repro.traces.ingest",
        description="Ingest AWS spot-price archives into mmap-compiled segments.",
    )
    p.add_argument("archives", nargs="+", help="CSV or gzip archive paths")
    p.add_argument("-o", "--out", required=True, help="segment output directory")
    p.add_argument("--chunk-records", type=int, default=DEFAULT_CHUNK_RECORDS)
    args = p.parse_args(argv)
    report = ingest_archive(args.archives, args.out, chunk_records=args.chunk_records)
    print(
        f"ingested {report.n_records} records into {report.n_markets} market "
        f"segment(s) under {report.out_dir} "
        f"(horizon {report.horizon:.0f}s, {report.duplicates_dropped} duplicate(s) dropped)"
    )
    for failed in (v for v in report.validation if not v.ok):
        print(failed.describe(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
