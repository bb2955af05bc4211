"""The journaled run ledger: crash-safe, resumable batch execution.

A :class:`RunLedger` is an append-only JSONL file that records a batch's
identity (one *header* record) followed by one *run* record per completed
:class:`~repro.core.simulation.RunSpec` — its spec fingerprint, distilled
:class:`~repro.core.results.SimulationResult`, telemetry payload, and
attempt count. ``run_batch(..., ledger=path)`` journals as it goes;
``run_batch(..., ledger=path, resume=True)`` validates the header against
the batch being executed, replays every intact journaled run without
re-executing it, and submits only the remainder.

Guarantees
----------
* **Group commit.** Records are written in *groups*: one executed run
  followed by the clone records its unit yields after it, up to the
  next execution. Each record is its own ``\\n``-terminated line; a
  group is made durable by one ``flush`` + ``fsync``
  (:meth:`RunLedger.commit`), and group *k* is fsynced before the first
  byte of group *k+1* is written. A SIGKILL leaves a prefix of the byte
  stream; a power loss can damage only the final, uncommitted group. So
  after either crash at most one executed run has to run again.
* **Torn tails are tolerated.** A group starts with the only record in
  it whose telemetry has ``deduped == false``. On load, a line that
  does not parse (or the unterminated last line) is a *torn tail* when
  every intact line after it is a clone record: the file is truncated
  from that line and those runs re-execute (or clone again), so appends
  made after recovery always start on a fresh line — even across
  repeated crash/resume cycles. A corrupt line followed by any executed
  record means the file was edited, not torn — that is a hard
  :class:`~repro.errors.LedgerError`.
* **Fingerprinted headers.** The header carries the batch fingerprint
  (package version + ordered per-spec content hashes, which subsume each
  run's catalog identity). Resuming against a batch whose fingerprint
  differs is a hard error: a ledger never silently grafts results from
  one experiment onto another.
* **Byte-identical resumption.** Results round-trip through JSON with
  ``repr``-exact floats, so a resumed batch's final report is
  byte-identical to an uninterrupted run at any ``--jobs``.

The file format is documented in ``docs/RESUME.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.results import SimulationResult
from repro.errors import LedgerError
from repro.obs.events import event_from_dict
from repro.runtime.telemetry import RunTelemetry

__all__ = ["LEDGER_VERSION", "LedgerRecord", "LedgerState", "RunLedger", "resolve_ledger_path"]

#: Bumped when the record schema changes incompatibly.
LEDGER_VERSION = 2


@dataclasses.dataclass(frozen=True)
class LedgerRecord:
    """One journaled completed run."""

    index: int  #: submission-order position in the batch
    fingerprint: str  #: the run's spec content hash
    result: SimulationResult
    telemetry: RunTelemetry


@dataclasses.dataclass(frozen=True)
class LedgerState:
    """A loaded ledger: header fields plus every intact run record."""

    fingerprint: str  #: batch fingerprint from the header
    version: int  #: ledger schema version
    package_version: str
    runs: int  #: batch size recorded in the header
    records: Dict[int, LedgerRecord]
    dropped_torn_tail: bool  #: a torn trailing record was discarded


def resolve_ledger_path(ledger: Union[str, Path], fingerprint: str) -> Path:
    """Resolve a user-supplied ledger argument to a concrete file path.

    A directory (existing, or a path spelled with a trailing separator)
    holds one ledger per batch, named by batch fingerprint — this is what
    lets ``repro-experiments --ledger DIR`` journal the many independent
    batches one experiment run emits. Anything else is used verbatim as a
    single batch's ledger file.
    """
    path = Path(ledger)
    raw = str(ledger)
    # A trailing "/" spells directory intent on every platform; also honor
    # the native separators so "dir\\" works on Windows.
    trailing_sep = raw.endswith(("/", os.sep)) or (
        os.altsep is not None and raw.endswith(os.altsep)
    )
    if path.is_dir() or trailing_sep:
        path.mkdir(parents=True, exist_ok=True)
        return path / f"batch-{fingerprint[:16]}.jsonl"
    return path


def _header_fingerprint(path: Path) -> Optional[str]:
    """The batch fingerprint in ``path``'s header record, or ``None`` when
    the file is missing or its first line is not an intact header."""
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
    except OSError:
        return None
    if not first.endswith(b"\n"):
        return None
    try:
        record = json.loads(first.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or record.get("kind") != "header":
        return None
    fingerprint = record.get("fingerprint")
    return str(fingerprint) if fingerprint is not None else None


#: A record's JSON encoding: sorted keys, no whitespace.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(SimulationResult))
_TELEMETRY_FIELDS = tuple(f.name for f in dataclasses.fields(RunTelemetry))


def _fields_dict(obj: Any, names: Tuple[str, ...]) -> Dict[str, Any]:
    """A dataclass's fields as a dict, values shared rather than copied.

    ``dataclasses.asdict`` deep-copies every metrics dict and histogram
    list only for the record to be serialised; JSON encodes the shared
    values — tuples and lists alike as arrays — to the same bytes.
    """
    return {name: getattr(obj, name) for name in names}


def _run_record(
    index: int, fingerprint: str, result: SimulationResult, telemetry: RunTelemetry
) -> Dict[str, Any]:
    """One completed run's journal record, ready for :data:`_ENCODE`."""
    return {
        "kind": "run",
        "index": index,
        "fingerprint": fingerprint,
        "attempts": telemetry.attempts,
        "result": _fields_dict(result, _RESULT_FIELDS),
        "telemetry": _fields_dict(telemetry, _TELEMETRY_FIELDS),
    }


def _result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    return SimulationResult(**data)


def _telemetry_from_dict(data: Dict[str, Any]) -> RunTelemetry:
    if data.get("trace_events") is not None:
        # Records are written with sorted keys; rebuilding each event
        # restores its field order, so a replayed trace writes the bytes
        # the original execution did.
        data["trace_events"] = tuple(
            event_from_dict(e).to_dict() for e in data["trace_events"]
        )
    # Replayed telemetry reports the *original* execution's facts
    # (wall clock, worker pid, attempts) plus the replay marker.
    data["replayed"] = True
    return RunTelemetry(**data)


def _decode(raw_line: bytes) -> Dict[str, Any]:
    """One ledger line as a record; ``ValueError`` when it is damaged."""
    record = json.loads(raw_line.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    return record


def _is_clone_record(record: Dict[str, Any]) -> bool:
    telemetry = record.get("telemetry")
    return (
        record.get("kind") == "run"
        and isinstance(telemetry, dict)
        and telemetry.get("deduped") is True
    )


def _check_torn_tail(path: Path, lineno: int, exc: ValueError, rest: list) -> None:
    """Raise :class:`LedgerError` unless the damaged line ``lineno`` starts
    a torn tail: every intact line in ``rest``, the lines after it, is a
    clone record.

    Each group opens with its one executed record and is fsynced before
    the next group is written, so a crash can damage only lines of the
    final group — and every line of that group after its first is a
    clone. An executed record after the damage means the file was
    modified.
    """
    for offset, raw_line in enumerate(rest, start=1):
        try:
            record = _decode(raw_line)
        except ValueError:
            continue
        if not _is_clone_record(record):
            raise LedgerError(
                f"ledger {path} line {lineno} is corrupt (not a torn tail — "
                f"line {lineno + offset} after it is an executed record, so "
                f"the file was modified): {exc}"
            ) from exc


class RunLedger:
    """Append-only journal of one batch's completed runs.

    Create with :meth:`start` (fresh file, header written immediately) or
    :meth:`load` (parse an existing file for resumption, then keep
    appending to it).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None

    # ------------------------------------------------------------- writing
    @classmethod
    def start(cls, path: Union[str, Path], fingerprint: str, runs: int) -> "RunLedger":
        """Create a fresh ledger and write its batch header.

        Refuses to overwrite an existing ledger whose header names the
        *same* batch fingerprint: that journal is resumable, and silently
        truncating it (e.g. a rerun that forgot ``--resume``) would
        irreversibly destroy completed work. A file holding a different
        batch — or unreadable garbage — is overwritten as before.
        """
        from repro._version import __version__

        ledger = cls(path)
        if _header_fingerprint(ledger.path) == fingerprint:
            raise LedgerError(
                f"ledger {ledger.path} already journals this exact batch; "
                "resume it with resume=True (--resume), or delete the file "
                "to discard the journaled runs and start over"
            )
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger._fh = open(ledger.path, "w", encoding="utf-8")
        ledger._append(
            {
                "kind": "header",
                "version": LEDGER_VERSION,
                "package_version": __version__,
                "fingerprint": fingerprint,
                "runs": runs,
            }
        )
        ledger.commit()
        return ledger

    def record_run(
        self, index: int, fingerprint: str, result: SimulationResult, telemetry: RunTelemetry
    ) -> None:
        """Append one completed run to the write buffer; it is durable
        once the :meth:`commit` that closes its group returns."""
        self._append(_run_record(index, fingerprint, result, telemetry))

    def commit(self) -> None:
        """Make every record written so far durable: one flush + fsync."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(_ENCODE(record) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- reading
    @classmethod
    def load(cls, path: Union[str, Path]) -> Tuple["RunLedger", LedgerState]:
        """Parse an existing ledger for resumption.

        Returns the ledger (positioned to append further records) and its
        :class:`LedgerState`. Tolerates a torn tail: a line that does not
        parse, or the unterminated last line, followed by nothing but
        clone records and further damaged lines — the signature of a
        crash inside the final, uncommitted group. The tail is
        **truncated from the file** so that later appends start on a
        fresh line (otherwise the first post-resume record would
        concatenate onto the fragment, corrupting the journal for every
        subsequent resume). Any other structural damage raises
        :class:`LedgerError`.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise LedgerError(f"cannot read ledger {path}: {exc}") from exc
        terminated = data.endswith(b"\n")
        lines = data.split(b"\n")
        if terminated:
            lines.pop()  # the empty sentinel after the final newline
        if not lines:
            raise LedgerError(f"ledger {path} is empty")

        parsed: list[Dict[str, Any]] = []
        intact_end = 0  # byte offset just past the last intact record
        dropped_torn_tail = False
        for lineno, raw_line in enumerate(lines, start=1):
            try:
                record = _decode(raw_line)
            except ValueError as exc:
                _check_torn_tail(path, lineno, exc, lines[lineno:])
                dropped_torn_tail = True
                break
            if lineno == len(lines) and not terminated:
                # Parses, but the crash cut the trailing newline: the
                # append never completed, so the record is not durable.
                dropped_torn_tail = True
                break
            parsed.append(record)
            intact_end += len(raw_line) + 1

        if not parsed or parsed[0].get("kind") != "header":
            raise LedgerError(f"ledger {path} does not start with a header record")
        header = parsed[0]
        version = header.get("version")
        if version != LEDGER_VERSION:
            raise LedgerError(
                f"ledger {path} has schema version {version!r}; "
                f"this build reads version {LEDGER_VERSION}"
            )

        records: Dict[int, LedgerRecord] = {}
        for record in parsed[1:]:
            if record.get("kind") != "run":
                raise LedgerError(
                    f"ledger {path} contains unknown record kind {record.get('kind')!r}"
                )
            try:
                rec = LedgerRecord(
                    index=int(record["index"]),
                    fingerprint=str(record["fingerprint"]),
                    result=_result_from_dict(record["result"]),
                    telemetry=_telemetry_from_dict(record["telemetry"]),
                )
            except (KeyError, TypeError) as exc:
                raise LedgerError(
                    f"ledger {path} holds a malformed run record: {exc}"
                ) from exc
            records[rec.index] = rec

        state = LedgerState(
            fingerprint=str(header.get("fingerprint", "")),
            version=int(version),
            package_version=str(header.get("package_version", "")),
            runs=int(header.get("runs", 0)),
            records=records,
            dropped_torn_tail=dropped_torn_tail,
        )
        if dropped_torn_tail:
            # Cut the torn fragment out of the file *before* handing back
            # an append handle; appending after a fragment would weld new
            # JSON onto it, and the next load would reject the weld as
            # interior corruption.
            try:
                with open(path, "r+b") as fh:
                    fh.truncate(intact_end)
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError as exc:
                raise LedgerError(
                    f"cannot truncate torn tail of ledger {path}: {exc}"
                ) from exc
        ledger = cls(path)
        return ledger, state
