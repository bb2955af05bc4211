"""The journaled run ledger: crash-safe batches, resumable byte-identically.

Covers the full recovery contract: group-committed journaling (one
fsync per executed run and its clones, committed before progress),
torn-tail tolerance inside the final group, fingerprint hard-failures,
resuming across ``--jobs`` values, and the end-to-end orchestrator-SIGKILL
drills via :func:`repro.testkit.faults.kill_orchestrator_after_n_runs`.
"""

import dataclasses
import json
import os
import signal
from pathlib import Path

import pytest

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.errors import ConfigurationError, LedgerError
from repro.obs import observe
from repro.runtime import (
    LEDGER_VERSION,
    RunLedger,
    RunSpec,
    StrategySpec,
    batch_fingerprint,
    resolve_ledger_path,
    run_batch,
    spec_fingerprint,
    spec_fingerprints,
)
from repro.testkit.faults import kill_orchestrator_after_n_runs, run_kill_drill
from repro.traces.catalog import MarketKey
from repro.units import days

KEY = MarketKey("us-east-1a", "small")
REPO = Path(__file__).parents[2]


def _spec(seed=1, **kw):
    return RunSpec(
        strategy=StrategySpec.single(KEY),
        seed=seed,
        horizon_s=days(2),
        regions=("us-east-1a",),
        sizes=("small",),
        **kw,
    )


def _specs(*seeds):
    return [_spec(seed=s) for s in seeds]


def _ledger_lines(path):
    return path.read_text().splitlines()


# --------------------------------------------------------------- fingerprints
class TestFingerprints:
    def test_fingerprint_is_stable(self):
        assert spec_fingerprint(_spec()) == spec_fingerprint(_spec())

    def test_fingerprint_sees_every_result_field(self):
        base = spec_fingerprint(_spec())
        assert spec_fingerprint(_spec(seed=2)) != base
        assert spec_fingerprint(_spec().with_(horizon_s=days(3))) != base
        assert spec_fingerprint(_spec().with_(label="x")) != base

    def test_batch_fingerprint_sees_order(self):
        assert batch_fingerprint(spec_fingerprints(_specs(1, 2))) != batch_fingerprint(
            spec_fingerprints(_specs(2, 1))
        )

    def test_fingerprints_pinned(self):
        # Ledgers journaled by earlier versions resume only while these
        # hashes hold.
        assert spec_fingerprint(_spec()) == (
            "7ffb0deed25aaf97c6673c7cddd38eeda8de38a7b9776da55125a2c302d06b66"
        )
        assert spec_fingerprint(_spec().with_(bidding=ReactiveBidding(), label="x")) == (
            "a6c1a1ecfb6cacc154d8365270ffec6b76f9cf02fbb6b22d8793d78cc85bb3ee"
        )

    def test_fingerprint_memo_keys_on_identity_not_equality(self):
        # ProactiveBidding(k=2) == ProactiveBidding(k=2.0) and 0.0 == -0.0,
        # yet each pair reduces to different canonical forms: a memo keyed
        # by equality would hand one spec the other's fingerprint.
        assert ProactiveBidding(k=2) == ProactiveBidding(k=2.0)
        specs = [
            _spec(bidding=ProactiveBidding(k=2)),
            _spec(bidding=ProactiveBidding(k=2.0)),
            _spec(startup_cv=0.0),
            _spec(startup_cv=-0.0),
        ]
        memoized = spec_fingerprints(specs)
        assert memoized == tuple(spec_fingerprint(s) for s in specs)
        assert memoized[0] != memoized[1]
        assert memoized[2] != memoized[3]
        # The batch digest hashes those same per-spec hashes, in order.
        import hashlib

        from repro._version import __version__

        blob = json.dumps(
            ["batch", __version__, [spec_fingerprint(s) for s in specs]],
            sort_keys=True,
            separators=(",", ":"),
        )
        assert batch_fingerprint(memoized) == hashlib.sha256(blob.encode()).hexdigest()

    def test_fingerprint_equals_whole_blob_hash(self):
        # The blob is assembled from per-field encodings; it must hash the
        # same bytes as encoding ["RunSpec", fields] in one go, with each
        # additive field left out while it encodes as its default.
        import hashlib

        from repro.runtime.spec import _canonical

        def encode(obj):
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        specs = [
            _spec(),
            _spec(bidding=ReactiveBidding(), label="x"),
            _spec(calibrations={("us-east-1a", "small"): None}, startup_cv=-0.0),
            _spec(grace_s=30.0),
            _spec(grace_s=120),
        ]
        for spec in specs:
            fields = {}
            for f in dataclasses.fields(spec):
                value = _canonical(getattr(spec, f.name))
                if f.metadata.get("additive") and encode(value) == encode(_canonical(f.default)):
                    continue
                fields[f.name] = value
            blob = encode(["RunSpec", fields])
            assert spec_fingerprint(spec) == hashlib.sha256(blob.encode()).hexdigest()
        # 120 == 120.0, but the int encodes differently from the default.
        assert spec_fingerprint(specs[-1]) != spec_fingerprint(specs[0])

    def test_same_named_dataclasses_from_different_modules_differ(self):
        from repro.runtime.spec import _canonical

        def make(module):
            @dataclasses.dataclass(frozen=True)
            class Overrides:
                x: int = 1

            Overrides.__module__ = module
            Overrides.__qualname__ = "Overrides"
            return Overrides

        assert _canonical(make("ext_a")()) != _canonical(make("ext_b")())

    def test_same_named_enums_from_different_modules_differ(self):
        import enum

        from repro.runtime.spec import _canonical

        def make(module):
            Mode = enum.Enum("Mode", ["FAST"])
            Mode.__module__ = module
            Mode.__qualname__ = "Mode"
            return Mode

        assert _canonical(make("ext_a").FAST) != _canonical(make("ext_b").FAST)


class TestAdditiveFields:
    """A field declared additive is hashed only off its default, so
    ``RunSpec`` can grow without invalidating journals already written."""

    @staticmethod
    def _grown(additive):
        metadata = {"additive": True} if additive else {}

        @dataclasses.dataclass(frozen=True)
        class GrownSpec(RunSpec):
            extra: float = dataclasses.field(default=1.0, metadata=metadata)

        def grow(spec, **kw):
            fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
            return GrownSpec(**fields, **kw)

        return grow

    @staticmethod
    def _journaled():
        # The frozen journal's per-run fingerprints, written before any
        # additive field existed.
        from tests.runtime.test_ledger_compat import FIXTURE, fixture_specs

        records = [json.loads(line) for line in FIXTURE.read_text().splitlines()[1:]]
        return fixture_specs(), tuple(r["fingerprint"] for r in records)

    def test_defaulted_additive_field_keeps_every_fingerprint(self):
        specs, journaled = self._journaled()
        assert spec_fingerprints(specs) == journaled
        grow = self._grown(additive=True)
        assert spec_fingerprints([grow(s) for s in specs]) == journaled

    def test_setting_an_additive_field_changes_the_fingerprint(self):
        specs, journaled = self._journaled()
        grow = self._grown(additive=True)
        for extra in (2.0, 1, -1.0):  # off-default encodings, 1 == 1.0 included
            moved = spec_fingerprints([grow(s, extra=extra) for s in specs])
            assert all(a != b for a, b in zip(moved, journaled))

    def test_non_additive_field_changes_every_fingerprint(self):
        specs, journaled = self._journaled()
        grow = self._grown(additive=False)
        grown = spec_fingerprints([grow(s) for s in specs])
        assert all(a != b for a, b in zip(grown, journaled))

    def test_nested_dataclass_additive_field(self):
        from repro.runtime.spec import _canonical

        @dataclasses.dataclass(frozen=True)
        class Params:
            x: int = 1
            y: float = dataclasses.field(default=0.0, metadata={"additive": True})

        assert _canonical(Params())[1] == {"x": 1}
        assert _canonical(Params(y=-0.0))[1] == {"x": 1, "y": -0.0}
        assert _canonical(Params(y=0))[1] == {"x": 1, "y": 0}


# ------------------------------------------------------------------ journaling
class TestJournaling:
    def test_ledger_written_one_record_per_run(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        batch = run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        assert len(lines) == 4  # header + 3 runs
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["runs"] == 3
        assert header["fingerprint"] == batch_fingerprint(spec_fingerprints(_specs(1, 2, 3)))
        indices = sorted(json.loads(l)["index"] for l in lines[1:])
        assert indices == [0, 1, 2]
        assert batch.telemetry.replayed_runs == 0
        assert not batch.telemetry.resumed

    def test_ledger_results_roundtrip_exactly(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2))
        run_batch(_specs(1, 2), ledger=led)
        full_replay = run_batch(_specs(1, 2), ledger=led, resume=True)
        assert full_replay.results == base.results
        assert full_replay.telemetry.replayed_runs == 2
        assert all(t.replayed for t in full_replay.run_telemetry)

    def test_directory_ledger_gets_per_batch_file(self, tmp_path):
        run_batch(_specs(1, 2), ledger=tmp_path)
        run_batch(_specs(5, 6), ledger=tmp_path)
        files = sorted(tmp_path.glob("batch-*.jsonl"))
        assert len(files) == 2  # distinct batches, distinct fingerprints
        fp = batch_fingerprint(spec_fingerprints(_specs(1, 2)))
        expected = resolve_ledger_path(tmp_path, fp)
        assert expected in files

    def test_trailing_slash_spells_directory_intent(self, tmp_path):
        # "/" is directory intent on every platform, not just where it
        # happens to equal os.sep; the directory is created on demand.
        fp = batch_fingerprint(spec_fingerprints(_specs(1)))
        resolved = resolve_ledger_path(str(tmp_path / "ledgers") + "/", fp)
        assert resolved.parent == tmp_path / "ledgers"
        assert resolved.parent.is_dir()
        assert resolved.name == f"batch-{fp[:16]}.jsonl"

    def test_plain_file_path_used_verbatim(self, tmp_path):
        fp = batch_fingerprint(spec_fingerprints(_specs(1)))
        target = tmp_path / "one.jsonl"
        assert resolve_ledger_path(target, fp) == target

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        led = tmp_path / "new.jsonl"
        batch = run_batch(_specs(1, 2), ledger=led, resume=True)
        assert not batch.telemetry.resumed
        assert batch.telemetry.replayed_runs == 0
        assert led.exists()

    def test_resume_without_ledger_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_specs(1), resume=True)

    def test_without_resume_same_batch_ledger_refused(self, tmp_path):
        # Forgetting --resume must not silently destroy a resumable
        # journal for the very batch being rerun.
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        before = _ledger_lines(led)
        with pytest.raises(LedgerError, match="resume"):
            run_batch(_specs(1, 2), ledger=led)
        assert _ledger_lines(led) == before  # journal untouched

    def test_without_resume_different_batch_ledger_overwritten(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        run_batch(_specs(5, 6), ledger=led)  # different batch: fresh journal
        lines = _ledger_lines(led)
        assert len(lines) == 3
        fp = batch_fingerprint(spec_fingerprints(_specs(5, 6)))
        assert json.loads(lines[0])["fingerprint"] == fp


# --------------------------------------------------------------------- resume
class TestResume:
    def test_partial_ledger_replays_and_completes(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n")  # header + 2 runs survive

        resumed = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert resumed.results == base.results
        assert resumed.telemetry.resumed
        assert resumed.telemetry.replayed_runs == 2
        assert sum(1 for t in resumed.run_telemetry if t.replayed) == 2
        # The re-executed run was appended: the ledger is now complete.
        assert len(_ledger_lines(led)) == 4

    def test_torn_trailing_record_tolerated_and_rerun(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        # Simulate a crash mid-append: the last record is torn.
        led.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])

        resumed = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert resumed.results == base.results
        assert resumed.telemetry.replayed_runs == 2  # torn run re-executed

    def test_torn_tail_truncated_on_load(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        intact = "\n".join(lines[:3]) + "\n"
        led.write_text(intact + lines[3][: len(lines[3]) // 2])

        _, state = RunLedger.load(led)
        assert state.dropped_torn_tail
        # The fragment is physically gone: only intact records remain,
        # newline-terminated, so post-resume appends start a fresh line.
        assert led.read_text() == intact

    def test_torn_tail_resume_survives_repeated_crash_resume_cycles(self, tmp_path):
        # Regression: appending after an un-truncated torn fragment used
        # to weld the next record onto it, so the *second* resume saw a
        # corrupt interior line and bricked the journal for good.
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])

        first = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert first.results == base.results

        # The healed ledger must load cleanly and hold the full batch.
        _, state = RunLedger.load(led)
        assert not state.dropped_torn_tail
        assert sorted(state.records) == [0, 1, 2]

        # A second resume replays everything, still byte-identical.
        second = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert second.results == base.results
        assert second.telemetry.replayed_runs == 3

        # Tear it again and resume again: still recoverable.
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n" + lines[3][:10])
        third = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert third.results == base.results
        assert third.telemetry.replayed_runs == 2
        assert sorted(RunLedger.load(led)[1].records) == [0, 1, 2]

    def test_unterminated_final_line_treated_as_torn(self, tmp_path):
        # A record whose newline never hit the disk is not durable even
        # if its JSON happens to parse — drop it and re-execute the run.
        led = tmp_path / "batch.jsonl"
        base = run_batch(_specs(1, 2, 3))
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines))  # strip only the final newline

        _, state = RunLedger.load(led)
        assert state.dropped_torn_tail
        assert len(state.records) == 2

        resumed = run_batch(_specs(1, 2, 3), ledger=led, resume=True)
        assert resumed.results == base.results
        assert resumed.telemetry.replayed_runs == 2
        assert sorted(RunLedger.load(led)[1].records) == [0, 1, 2]

    def test_corrupt_interior_record_is_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        lines[2] = lines[2][:20]  # corrupt a record that is NOT the tail
        led.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="not a torn tail"):
            run_batch(_specs(1, 2, 3), ledger=led, resume=True)

    def test_changed_spec_fingerprint_mismatch_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        with pytest.raises(LedgerError, match="different batch"):
            run_batch(
                [_spec(seed=1), _spec(seed=2).with_(horizon_s=days(3))],
                ledger=led,
                resume=True,
            )

    def test_changed_batch_size_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        with pytest.raises(LedgerError):
            run_batch(_specs(1, 2, 3), ledger=led, resume=True)

    def test_wrong_schema_version_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        lines = _ledger_lines(led)
        header = json.loads(lines[0])
        header["version"] = LEDGER_VERSION - 1
        lines[0] = json.dumps(header)
        led.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="schema version 1"):
            run_batch(_specs(1, 2), ledger=led, resume=True)

    def test_unknown_telemetry_key_is_malformed_record(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        lines = _ledger_lines(led)
        record = json.loads(lines[1])
        record["telemetry"]["fused"] = False  # a field this schema dropped
        lines[1] = json.dumps(record)
        led.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="malformed run record"):
            run_batch(_specs(1, 2), ledger=led, resume=True)

    def test_empty_ledger_hard_error(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        led.write_text("")
        with pytest.raises(LedgerError, match="empty"):
            run_batch(_specs(1), ledger=led, resume=True)

    def test_progress_not_called_for_replayed_runs(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2, 3), ledger=led)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n")
        seen = []
        run_batch(
            _specs(1, 2, 3), ledger=led, resume=True,
            progress=lambda t: seen.append(t.seed),
        )
        assert seen == [3]

    @pytest.mark.slow
    def test_resume_with_different_jobs_byte_identical(self, tmp_path):
        seeds = (1, 2, 3, 4)
        base = run_batch(_specs(*seeds), jobs=1)
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(*seeds), ledger=led, jobs=1)
        lines = _ledger_lines(led)
        led.write_text("\n".join(lines[:3]) + "\n")  # 2 of 4 journaled

        # Journaled at jobs=1, resumed at jobs=4 — and the other way round.
        resumed4 = run_batch(_specs(*seeds), ledger=led, resume=True, jobs=4)
        assert resumed4.results == base.results
        assert resumed4.telemetry.replayed_runs == 2

        led2 = tmp_path / "batch2.jsonl"
        run_batch(_specs(*seeds), ledger=led2, jobs=4)
        lines2 = _ledger_lines(led2)
        led2.write_text("\n".join(lines2[:3]) + "\n")
        resumed1 = run_batch(_specs(*seeds), ledger=led2, resume=True, jobs=1)
        assert resumed1.results == base.results
        assert resumed1.telemetry.replayed_runs == 2


# ----------------------------------------------------- orchestrator SIGKILL
def drill_specs():
    """The batch the kill drill's orchestrator journals."""
    return _specs(1, 2, 3, 4)


def _result_bytes(results):
    """Canonical byte serialization of a result tuple (identity check)."""
    return json.dumps(
        [dataclasses.asdict(r) for r in results], sort_keys=True
    ).encode()


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 4])
def test_kill_orchestrator_then_resume_byte_identical(tmp_path, jobs):
    """The acceptance drill: SIGKILL the orchestrator mid-batch, resume,
    and demand a byte-identical report plus replayed-run telemetry."""
    led = tmp_path / "batch.jsonl"
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        # Reaps the orphaned pool workers (jobs=4) and fails if any survive.
        returncode = run_kill_drill(
            "tests.runtime.test_ledger:drill_specs",
            led,
            jobs=jobs,
            kill_after=2,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])},
            stderr=err,
        )
    assert returncode == -signal.SIGKILL, err_path.read_text()
    journaled = len(_ledger_lines(led)) - 1
    assert journaled >= 2  # the kill threshold, plus racing pool workers

    baseline = run_batch(drill_specs(), jobs=jobs)
    resumed = run_batch(drill_specs(), ledger=led, resume=True, jobs=jobs)
    assert _result_bytes(resumed.results) == _result_bytes(baseline.results)
    assert resumed.telemetry.resumed
    assert resumed.telemetry.replayed_runs == journaled
    assert sum(1 for t in resumed.run_telemetry if t.replayed) == journaled


def traced_resume_specs():
    """Four runs; journaled outside a trace scope, two are rank clones."""
    return [
        _spec(seed=s, bidding=ProactiveBidding(k=k), label=f"s{s}/k={k}")
        for s in (1, 2)
        for k in (5.0, 7.0)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_resume_reexecutes_runs_journaled_without_events(tmp_path, jobs):
    """A batch journaled outside any scope resumes inside an
    ``observe(trace=True)`` scope: each record without trace events runs
    again in capture mode, so the trace and the results equal an
    uninterrupted traced run's, byte for byte."""
    led = tmp_path / "batch.jsonl"
    run_batch(traced_resume_specs(), ledger=led)
    with observe(trace=True) as plain:
        baseline = run_batch(traced_resume_specs(), jobs=jobs)
    with observe(trace=True) as watched:
        resumed = run_batch(traced_resume_specs(), ledger=led, resume=True, jobs=jobs)
    expected, got = tmp_path / "plain.jsonl", tmp_path / "resumed.jsonl"
    assert plain.write_jsonl(str(expected)) > 0
    watched.write_jsonl(str(got))
    assert got.read_bytes() == expected.read_bytes()
    assert _result_bytes(resumed.results) == _result_bytes(baseline.results)
    assert resumed.telemetry.replayed_runs == 0
    # The re-executed runs were journaled again with their events, so a
    # second traced resume replays every run.
    with observe(trace=True) as again:
        replayed = run_batch(traced_resume_specs(), ledger=led, resume=True, jobs=jobs)
    assert replayed.telemetry.replayed_runs == 4
    again.write_jsonl(str(got))
    assert got.read_bytes() == expected.read_bytes()


def test_kill_hook_validates_threshold():
    with pytest.raises(ConfigurationError):
        kill_orchestrator_after_n_runs(0)


def test_kill_hook_counts_completions():
    # With a benign signal number 0, os.kill is a no-op probe: the hook
    # must fire it only once the threshold is reached.
    hook = kill_orchestrator_after_n_runs(3, sig=0)
    for _ in range(5):
        hook(None)  # would raise on a dead pid; sig 0 just checks


# --------------------------------------------------------------- group commit
def clone_specs():
    """Two catalogs, six proactive variants each. Bids of k >= 4 clamp at
    the provider's cap, so each catalog's first run executes and the
    other five clone it: the ledger holds two groups of six records."""
    return [
        _spec(
            seed=s,
            bidding=ProactiveBidding(k=k, reverse_threshold_frac=frac),
            label=f"s{s}/k={k}/f={frac}",
        )
        for s in (1, 2)
        for k in (5.0, 7.0, 9.0)
        for frac in (0.8, 0.95)
    ]


class TestGroupCommit:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_batch(clone_specs())

    def _journal(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(clone_specs(), ledger=led)
        # header, then two groups: an executed record and its five clones
        deduped = [json.loads(l)["telemetry"]["deduped"] for l in _ledger_lines(led)[1:]]
        assert deduped == [False] + [True] * 5 + [False] + [True] * 5
        return led

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_fsync_per_executed_run(self, tmp_path, monkeypatch, jobs):
        import repro.runtime.ledger as ledger_module

        calls = []
        real_fsync = ledger_module.os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(ledger_module.os, "fsync", counting_fsync)
        batch = run_batch(clone_specs(), ledger=tmp_path / "batch.jsonl", jobs=jobs)
        executed = batch.telemetry.runs - batch.telemetry.deduped_runs
        assert 0 < executed < batch.telemetry.runs
        assert len(calls) == 1 + executed  # the header, then one per group

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_group_is_journaled_before_progress(self, tmp_path, jobs):
        led = tmp_path / "batch.jsonl"
        index_of = {s.label: i for i, s in enumerate(clone_specs())}
        reported = []

        def progress(telemetry):
            journaled = {json.loads(l)["index"] for l in _ledger_lines(led)[1:]}
            assert index_of[telemetry.label] in journaled
            reported.append(telemetry.label)

        run_batch(clone_specs(), ledger=led, jobs=jobs, progress=progress)
        assert sorted(reported) == sorted(index_of)

    @pytest.mark.parametrize(
        "line, damage",
        [
            (7, lambda raw: "not json {"),  # the final group's executed record
            (9, lambda raw: "\0" * len(raw)),  # a zero-filled clone record
            (12, lambda raw: raw[: len(raw) // 3]),  # the final clone, torn
        ],
        ids=["garbage-executed", "zeroed-clone", "torn-last-clone"],
    )
    def test_damage_followed_only_by_clones_is_a_torn_tail(
        self, tmp_path, baseline, line, damage
    ):
        led = self._journal(tmp_path)
        lines = _ledger_lines(led)
        lines[line] = damage(lines[line])
        led.write_text("\n".join(lines) + "\n")

        _, state = RunLedger.load(led)
        assert state.dropped_torn_tail
        assert sorted(state.records) == list(range(line - 1))
        # Truncated from the damaged line: the file ends on a fresh line.
        assert led.read_text() == "\n".join(lines[:line]) + "\n"

        resumed = run_batch(clone_specs(), ledger=led, resume=True)
        assert _result_bytes(resumed.results) == _result_bytes(baseline.results)
        assert resumed.telemetry.replayed_runs == line - 1
        # Post-resume appends started on a fresh line: every line parses.
        healed = [json.loads(l) for l in _ledger_lines(led)]
        assert sorted(r["index"] for r in healed[1:]) == list(range(len(baseline.results)))
        assert not RunLedger.load(led)[1].dropped_torn_tail

    def test_damage_followed_by_an_executed_record_is_hard_error(self, tmp_path):
        led = self._journal(tmp_path)
        lines = _ledger_lines(led)
        lines[3] = "\0" * len(lines[3])  # a clone of the first, committed group
        led.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="not a torn tail"):
            RunLedger.load(led)


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2])
def test_kill_inside_a_clone_group_then_resume_byte_identical(tmp_path, jobs):
    """The kill lands on the third progress report, inside the first
    group of six: the whole group was committed before any of its runs
    were reported, so all six are journaled."""
    led = tmp_path / "batch.jsonl"
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        returncode = run_kill_drill(
            "tests.runtime.test_ledger:clone_specs",
            led,
            jobs=jobs,
            kill_after=3,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])},
            stderr=err,
        )
    assert returncode == -signal.SIGKILL, err_path.read_text()
    journaled = len(RunLedger.load(led)[1].records)
    assert 3 <= journaled < len(clone_specs())

    baseline = run_batch(clone_specs(), jobs=jobs)
    resumed = run_batch(clone_specs(), ledger=led, resume=True, jobs=jobs)
    assert _result_bytes(resumed.results) == _result_bytes(baseline.results)
    assert resumed.telemetry.replayed_runs == journaled


# -------------------------------------------------------------- ledger object
class TestRunLedgerObject:
    def test_load_reports_header_fields(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        _, state = RunLedger.load(led)
        assert state.runs == 2
        assert state.version == LEDGER_VERSION == 2
        assert state.package_version
        assert sorted(state.records) == [0, 1]
        assert not state.dropped_torn_tail

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger.load(tmp_path / "absent.jsonl")

    def test_header_only_ledger_resumes_everything(self, tmp_path):
        led = tmp_path / "batch.jsonl"
        run_batch(_specs(1, 2), ledger=led)
        led.write_text(_ledger_lines(led)[0] + "\n")
        batch = run_batch(_specs(1, 2), ledger=led, resume=True)
        assert batch.telemetry.replayed_runs == 0
        assert batch.telemetry.resumed
