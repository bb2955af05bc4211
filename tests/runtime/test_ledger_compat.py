"""Ledger compatibility: record bytes and old journals stay readable.

Run records are encoded from each dataclass's fields directly, sharing
their values instead of deep-copying them with ``dataclasses.asdict``.
These tests hold that encoding to the bytes the ``asdict`` encoder wrote,
and resume a journal that encoder wrote (``data/ledger_v2_asdict.jsonl``,
a frozen fixture: regenerating it with the current code would test
nothing).
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.core.bidding import ProactiveBidding
from repro.obs import observe
from repro.runtime import (
    LEDGER_VERSION,
    RunSpec,
    StrategySpec,
    batch_fingerprint,
    run_batch,
    spec_fingerprint,
    spec_fingerprints,
)
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")
FIXTURE = Path(__file__).parent / "data" / "ledger_v2_asdict.jsonl"


def fixture_specs():
    """The fixture's batch: a run and its twin (journaled with trace
    events inside a tracing scope), a rank clone of the pair, a pure-spot
    run and a labelled run — every record shape, with non-empty
    ``forced_times`` and ``downtime_by_cause``."""

    def spec(seed, k, strategy=StrategySpec.single(KEY), **kw):
        return RunSpec(
            strategy=strategy,
            bidding=ProactiveBidding(k=k),
            seed=seed,
            horizon_s=days(4),
            regions=("us-east-1a",),
            sizes=("small",),
            **kw,
        )

    return [
        spec(1, 1.5),
        spec(1, 1.5),
        spec(1, 1.51),
        spec(2, 1.5, strategy=StrategySpec.pure_spot(KEY)),
        spec(3, 1.5, label="labelled"),
    ]


def asdict_record_line(index, fingerprint, result, telemetry):
    """The run-record encoder that preceded the shallow one: the oracle."""
    tel = dataclasses.asdict(telemetry)
    if tel.get("trace_events") is not None:
        tel["trace_events"] = list(tel["trace_events"])
    record = {
        "kind": "run",
        "index": index,
        "fingerprint": fingerprint,
        "attempts": telemetry.attempts,
        "result": dataclasses.asdict(result),
        "telemetry": tel,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _result_bytes(results):
    return json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True).encode()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_run_records_match_the_asdict_encoder(tmp_path, traced):
    specs = fixture_specs()
    led = tmp_path / "batch.jsonl"
    with observe(trace=traced):
        batch = run_batch(specs, ledger=led)
    telemetry = batch.run_telemetry
    # Every record shape is present: a traced batch carries events on
    # every record, an untraced one clones.
    if traced:
        assert telemetry[0].trace_events
    else:
        assert telemetry[2].deduped
    assert batch.results[0].forced_times and batch.results[0].downtime_by_cause

    lines = led.read_text().splitlines()
    assert len(lines) == 1 + len(specs)
    runs = {json.loads(line)["index"]: line for line in lines[1:]}
    for i, spec in enumerate(specs):
        expected = asdict_record_line(
            i, spec_fingerprint(spec), batch.results[i], telemetry[i]
        )
        assert runs[i] == expected, f"record {i} differs from the asdict encoder"


def test_ledger_journaled_by_the_asdict_encoder_resumes(tmp_path):
    specs = fixture_specs()
    led = tmp_path / FIXTURE.name
    shutil.copyfile(FIXTURE, led)
    header = json.loads(FIXTURE.read_text().splitlines()[0])
    assert header["version"] == LEDGER_VERSION
    assert header["fingerprint"] == batch_fingerprint(spec_fingerprints(specs))

    resumed = run_batch(specs, ledger=led, resume=True)
    assert resumed.telemetry.resumed
    assert resumed.telemetry.replayed_runs == len(specs)
    assert all(t.replayed for t in resumed.run_telemetry)
    assert _result_bytes(resumed.results) == _result_bytes(run_batch(specs).results)
    # Nothing was re-executed, so nothing was appended.
    assert led.read_bytes() == FIXTURE.read_bytes()
