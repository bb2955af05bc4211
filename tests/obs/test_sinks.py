"""Sinks: the null default, memory collection, and JSONL round trips
through the one trace-file writer, ``ObservationScope.write_jsonl``."""

import json

from repro.obs import (
    NULL_SINK,
    EngineRunCompleted,
    MemorySink,
    NullSink,
    ObservationScope,
    TraceSink,
    event_from_dict,
    read_jsonl,
)
from repro.runtime import RunTelemetry


def ticks(n):
    return [EngineRunCompleted(t=float(i), fired_events=i) for i in range(n)]


def scope_with(events, label="run", seed=0):
    """A scope holding one run that captured ``events``."""
    scope = ObservationScope(trace=True)
    scope.add_run(
        RunTelemetry(
            label=label,
            seed=seed,
            wall_s=0.0,
            events_processed=len(events),
            trace_events=tuple(e.to_dict() for e in events),
        )
    )
    return scope


class TestNullSink:
    def test_disabled_and_shared(self):
        assert NULL_SINK.enabled is False
        assert isinstance(NULL_SINK, NullSink)

    def test_emit_is_a_noop(self):
        NULL_SINK.emit(ticks(1)[0])  # must not raise or record anything


class TestMemorySink:
    def test_collects_in_order(self):
        sink = MemorySink()
        assert sink.enabled is True
        events = ticks(3)
        for e in events:
            sink.emit(e)
        assert sink.events == events
        assert len(sink) == 3
        sink.clear()
        assert len(sink) == 0


class TestJsonl:
    def test_round_trip_with_tags(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = ticks(3)
        scope = scope_with(events, label="proactive/small", seed=11)
        assert scope.write_jsonl(str(path), extra_tags={"experiment": "fig6"}) == 3

        tags = ("experiment", "run", "seed", "engine")
        records = list(read_jsonl(path))
        assert len(records) == 3
        for record, event in zip(records, events):
            assert list(record)[:4] == list(tags)
            assert record["experiment"] == "fig6"
            assert record["run"] == "proactive/small"
            assert record["seed"] == 11
            assert record["engine"] == "event"
            payload = {k: v for k, v in record.items() if k not in tags}
            assert event_from_dict(payload) == event

    def test_lines_are_compact_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        scope_with(ticks(1)).write_jsonl(str(path))
        line = path.read_text().splitlines()[0]
        assert ": " not in line and ", " not in line
        assert json.loads(line)["type"] == "engine-run-completed"

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"engine-run-completed","t":0.0,"fired_events":1}\n\n\n')
        assert len(list(read_jsonl(path))) == 1


class TestProtocol:
    def test_provided_sinks_satisfy_the_protocol(self):
        for sink in (NULL_SINK, MemorySink()):
            assert isinstance(sink, TraceSink)
