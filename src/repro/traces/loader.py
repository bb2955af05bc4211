"""IO for spot-price traces in the AWS ``DescribeSpotPriceHistory`` CSV shape.

Real Amazon spot-price history (as returned by
``aws ec2 describe-spot-price-history`` and mirrored by several public
archives) is a sequence of records::

    Timestamp,InstanceType,ProductDescription,AvailabilityZone,SpotPrice
    2015-02-01T00:04:17Z,m1.small,Linux/UNIX,us-east-1a,0.0071

This module converts between that format and :class:`PriceTrace`, so users
with access to archived traces can seed every experiment with real data
instead of the synthetic calibration (the substitution documented in
DESIGN.md).
"""

from __future__ import annotations

import csv
import datetime as _dt
import gzip
import math
import re
from pathlib import Path
from typing import Iterator, TextIO, Tuple

import numpy as np

from repro.errors import TraceFormatError
from repro.traces.trace import PriceTrace

__all__ = [
    "load_aws_csv",
    "save_aws_csv",
    "iter_aws_rows",
    "parse_aws_timestamp",
    "format_aws_timestamp",
    "roundtrip_equal",
]

_HEADER = ["Timestamp", "InstanceType", "ProductDescription", "AvailabilityZone", "SpotPrice"]
_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)

#: Fractional-second timestamp: base, ``.digits``, optional zone suffix.
#: Python's ``fromisoformat`` only accepts 3- or 6-digit fractions before
#: 3.11, so fractions are split off and re-attached as plain arithmetic.
_FRACTION_RE = re.compile(r"^(?P<base>[^.]*)\.(?P<frac>\d+)(?P<tz>Z|[+-]\d{2}:?\d{2})?$")

#: Decimal places kept for fractional seconds on write — comfortably below
#: ``roundtrip_equal``'s 1e-9 tolerance.
_FRAC_DIGITS = 9


def parse_aws_timestamp(text: str) -> float:
    """Parse an ISO-8601 ``Z``-suffixed timestamp to epoch seconds.

    Fractional seconds of any precision are accepted (AWS emits whole
    seconds; :func:`save_aws_csv` emits up to nanoseconds when a trace has
    sub-second change points).
    """
    text = text.strip()
    frac = 0.0
    m = _FRACTION_RE.match(text)
    if m is not None:
        frac = float(f"0.{m.group('frac')}")
        text = m.group("base") + (m.group("tz") or "")
    try:
        if text.endswith("Z"):
            dt = _dt.datetime.fromisoformat(text[:-1]).replace(tzinfo=_dt.timezone.utc)
        else:
            dt = _dt.datetime.fromisoformat(text)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=_dt.timezone.utc)
    except ValueError as exc:
        raise TraceFormatError(f"bad timestamp {text!r}") from exc
    return (dt - _EPOCH).total_seconds() + frac


def format_aws_timestamp(epoch_seconds: float) -> str:
    """Format epoch seconds as the ``Z``-suffixed ISO form AWS emits.

    Whole seconds keep AWS's exact shape (``2015-02-01T00:04:17Z``); a
    fractional second is appended at nanosecond precision with trailing
    zeros trimmed (``...T00:04:17.25Z``), so sub-second change points
    survive the CSV round-trip instead of collapsing onto one second.
    """
    total = round(float(epoch_seconds), _FRAC_DIGITS)
    secs = math.floor(total)
    frac = round(total - secs, _FRAC_DIGITS)
    if frac >= 1.0:  # rounding carried into the next second
        secs += 1
        frac = 0.0
    dt = _EPOCH + _dt.timedelta(seconds=secs)
    base = dt.strftime("%Y-%m-%dT%H:%M:%S")
    if frac > 0.0:
        base += f"{frac:.{_FRAC_DIGITS}f}".rstrip("0")[1:]  # '.dddd', no leading 0
    return base + "Z"


def _open_for_read(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    """Open a path (plain or gzip) or pass a stream through.

    Path sources are decoded as ``utf-8-sig``: real archive dumps routinely
    carry a UTF-8 BOM on the first header cell (``\\ufeffTimestamp``), which
    used to raise an unexpected-header error. Gzip members are detected by
    magic bytes, not suffix, so ``archive.csv.gz`` and a misnamed plain file
    both work.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "rb") as probe:
                magic = probe.read(2)
        except OSError as exc:
            raise TraceFormatError(f"cannot read archive {source}: {exc.strerror}") from exc
        if magic == b"\x1f\x8b":
            return gzip.open(source, "rt", encoding="utf-8-sig", newline=""), True
        return open(source, "r", encoding="utf-8-sig", newline=""), True
    return source, False


#: One validated archive record: (epoch seconds, instance type, AZ, price).
AwsRow = Tuple[float, str, str, float]


def iter_aws_rows(fh: TextIO) -> Iterator[AwsRow]:
    """Stream validated records from an open AWS-format CSV.

    The single row-level parser behind :func:`load_aws_csv` and the bulk
    archive ingester (:mod:`repro.traces.ingest`): it validates the header
    (stripping a UTF-8 BOM that survived stream input), skips blank lines,
    and yields ``(epoch_seconds, instance_type, availability_zone, price)``
    tuples one at a time — the caller decides whether to accumulate them
    (single-market load) or demultiplex them onto disk (bulk ingest), so
    this function itself holds O(1) memory.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise TraceFormatError("empty trace file")
    header = [h.strip() for h in header]
    if header:
        # A BOM on stream input (path sources already decode utf-8-sig).
        header[0] = header[0].lstrip("\ufeff")
    if header != _HEADER:
        raise TraceFormatError(f"unexpected header {header!r}; want {_HEADER!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 5:
            raise TraceFormatError(f"line {lineno}: expected 5 fields, got {len(row)}")
        ts, itype, _product, az, price_s = (c.strip() for c in row)
        try:
            price = float(price_s)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad price {price_s!r}") from exc
        yield parse_aws_timestamp(ts), itype, az, price


def load_aws_csv(
    source: str | Path | TextIO,
    *,
    instance_type: str | None = None,
    availability_zone: str | None = None,
    horizon: float | None = None,
    rebase_to_zero: bool = True,
) -> PriceTrace:
    """Load one market's trace from an AWS-format CSV.

    Parameters
    ----------
    source:
        Path or open text stream.
    instance_type / availability_zone:
        Optional filters; required if the file mixes several markets.
    horizon:
        Validity end, **in the returned trace's time frame**: when
        ``rebase_to_zero`` is true (the default) that frame is seconds
        since the first record, NOT epoch seconds — a raw epoch horizon
        would silently mix frames. Must be strictly later than the last
        (rebased) change point. Defaults to one hour past the last record.
    rebase_to_zero:
        Shift times so the first record is at t=0 (what the simulator
        expects).

    Raises
    ------
    TraceFormatError
        On malformed rows, empty selections, ambiguous (multi-market)
        content when no filter is given, or a ``horizon`` at or before
        the last change point in the trace's frame.
    """
    fh, should_close = _open_for_read(source)
    try:
        rows = list(iter_aws_rows(fh))
    finally:
        if should_close:
            fh.close()

    if instance_type is not None:
        rows = [r for r in rows if r[1] == instance_type]
    if availability_zone is not None:
        rows = [r for r in rows if r[2] == availability_zone]
    if not rows:
        raise TraceFormatError("no records match the requested market")

    markets = {(r[1], r[2]) for r in rows}
    if len(markets) > 1:
        raise TraceFormatError(
            f"file contains {len(markets)} markets {sorted(markets)}; "
            "pass instance_type/availability_zone filters"
        )
    (itype, az) = next(iter(markets))

    rows.sort(key=lambda r: r[0])
    times = np.array([r[0] for r in rows])
    prices = np.array([r[3] for r in rows])
    # AWS reports a record per change but occasionally repeats a timestamp;
    # keep the last record of each timestamp.
    keep = np.concatenate([np.diff(times) > 0, [True]])
    times, prices = times[keep], prices[keep]

    if rebase_to_zero:
        times = times - times[0]
    if horizon is not None and horizon <= times[-1]:
        frame = "rebased (seconds since first record)" if rebase_to_zero else "epoch"
        raise TraceFormatError(
            f"horizon {horizon} is not after the last change point "
            f"{float(times[-1])} in the trace's {frame} frame; pass a "
            "horizon in that frame, strictly past the final record"
        )
    end = horizon if horizon is not None else float(times[-1] + 3600.0)
    return PriceTrace(times, prices, end, market=itype, region=az)


def save_aws_csv(
    trace: PriceTrace,
    dest: str | Path | TextIO,
    *,
    instance_type: str | None = None,
    availability_zone: str | None = None,
    product: str = "Linux/UNIX",
    epoch_offset: float = 0.0,
) -> None:
    """Write a trace in the AWS CSV shape (inverse of :func:`load_aws_csv`)."""
    itype = instance_type or trace.market or "unknown"
    az = availability_zone or trace.region or "unknown"

    def _write(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for t, p in zip(trace.times, trace.prices):
            # repr precision: the shortest decimal that parses back to the
            # identical float, so prices survive the round-trip exactly
            # (AWS's own %.6f shape truncates sub-microdollar rates).
            writer.writerow(
                [format_aws_timestamp(t + epoch_offset), itype, product, az, repr(float(p))]
            )

    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            _write(fh)
    else:
        _write(dest)


def roundtrip_equal(a: PriceTrace, b: PriceTrace, tol: float = 1e-9) -> bool:
    """True when two traces have identical change points and prices.

    The comparison is purely absolute (``rtol=0``): ``np.allclose``'s
    default relative term scales with the *magnitude* of the values, so
    epoch-frame change times (~1.4e9 s) would otherwise compare "equal"
    with up to ~4 hours of drift — non-rebased round-trips used to
    false-pass on wildly different timestamps.
    """
    return (
        len(a) == len(b)
        and bool(np.allclose(a.times, b.times, rtol=0.0, atol=tol))
        and bool(np.allclose(a.prices, b.prices, rtol=0.0, atol=tol))
    )
