"""Trace lines: the per-class compiled encoders write exactly the bytes
of the generic path, ``JSONL_ENCODER`` over the tags merged with the
event dict, for every event class and every value they must decline."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import typing
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import repro
from repro.obs import EVENT_TYPES, ObservationScope
from repro.obs.capture import _LINE_ENCODERS
from repro.obs.sinks import JSONL_ENCODER
from repro.runtime import RunTelemetry

#: A plain value of each declared field type.
PLAIN = {float: 1.25, int: 3, str: "us-east-1a/small", bool: True, Optional[float]: 2.5}

#: Values each declared type must still write byte-identically: ones the
#: compiled encoder writes itself and ones it hands to the generic path.
NASTY_FLOATS = [
    -0.0, 0.1, 1e16, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"),
    float("-inf"), 7, True, np.float64(0.1), np.float64("nan"),
]
VARIANTS = {
    float: NASTY_FLOATS,
    Optional[float]: [None, *NASTY_FLOATS],
    int: [0, -5, 2**70, True, 2.0],
    bool: [True, False, 1, 0.0],
    str: [
        "", "naïve — ü", "日本", 'q"uo\\te', "ctl\x00\x1f\n\t\x7f", "%s %r %%", "😀",
        np.str_("np-str"),
    ],
}

TAGS = [
    {"experiment": "fig6"},
    {"experiment": 'naïve "q" \\ %s'},
    {},
]


def field_types(cls):
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def plain_event(cls):
    return cls(**{name: PLAIN[hint] for name, hint in field_types(cls)})


def variants(cls):
    """The plain event, then one event per (field, awkward value)."""
    base = plain_event(cls)
    yield base
    for name, hint in field_types(cls):
        for value in VARIANTS[hint]:
            yield dataclasses.replace(base, **{name: value})


def written(events, extra_tags, deduped, label="proactive/small", seed=11):
    """What ``write_jsonl`` writes for one run that captured ``events``."""
    scope = ObservationScope(trace=True)
    scope.add_run(
        RunTelemetry(
            label=label, seed=seed, wall_s=0.0, events_processed=len(events),
            trace_events=tuple(e.to_dict() for e in events), deduped=deduped,
        )
    )
    buf = io.StringIO()
    assert scope.write_jsonl(buf, extra_tags=extra_tags) == len(events)
    return buf.getvalue()


def expected(events, extra_tags, deduped, label="proactive/small", seed=11):
    """The generic path: the run's tags updated with each event dict."""
    tags = {**extra_tags, "run": label, "seed": seed, "engine": "event"}
    if deduped:
        tags["deduped"] = True
    return "".join(JSONL_ENCODER.encode({**tags, **e.to_dict()}) + "\n" for e in events)


@pytest.mark.parametrize("deduped", [False, True], ids=["executed", "deduped"])
@pytest.mark.parametrize("etype", sorted(EVENT_TYPES))
def test_lines_equal_the_generic_encoder(etype, deduped):
    events = list(variants(EVENT_TYPES[etype]))
    for extra_tags in TAGS:
        assert written(events, extra_tags, deduped) == expected(events, extra_tags, deduped)


@pytest.mark.parametrize("etype", sorted(EVENT_TYPES))
def test_tags_colliding_with_event_fields(etype):
    """A tag named like an event key keeps its place and takes the event's value."""
    cls = EVENT_TYPES[etype]
    events = [plain_event(cls)]
    for key in ("type", "t", field_types(cls)[-1][0]):
        extra_tags = {"experiment": "fig6", key: "tag-value"}
        assert written(events, extra_tags, False) == expected(events, extra_tags, False)
        assert '"tag-value"' not in written(events, extra_tags, False)


def test_awkward_tag_values():
    events = [plain_event(cls) for cls in EVENT_TYPES.values()]
    for label, seed in [('we"ird\\ label ü', 0), ("x", -7), ("%r", 2**65)]:
        assert written(events, {"experiment": "e"}, True, label, seed) == expected(
            events, {"experiment": "e"}, True, label, seed
        )


def test_reordered_or_foreign_dicts_take_the_generic_path():
    """The compiled encoder only ever sees a dict shaped like ``to_dict``."""
    event = plain_event(EVENT_TYPES["billing-tick"]).to_dict()
    # Same keys and value types, two floats swapped in order.
    order = ["type", "t", "market", "on_demand_price", "price", "boundary"]
    reordered = {k: event[k] for k in order}
    renamed = {("when" if k == "t" else k): v for k, v in event.items()}
    longer = {**event, "note": "x"}
    shorter = {k: v for k, v in event.items() if k != "boundary"}
    unknown = {**event, "type": "not-an-event"}
    untyped = {k: v for k, v in event.items() if k != "type"}
    scope = ObservationScope(trace=True)
    records = (event, reordered, renamed, longer, shorter, unknown, untyped)
    scope.add_run(RunTelemetry(label="r", seed=1, wall_s=0.0, events_processed=0,
                               trace_events=records))
    buf = io.StringIO()
    scope.write_jsonl(buf)
    tags = {"run": "r", "seed": 1, "engine": "event"}
    assert buf.getvalue() == "".join(
        JSONL_ENCODER.encode({**tags, **record}) + "\n" for record in records
    )


@pytest.mark.parametrize("etype", sorted(EVENT_TYPES))
def test_plain_events_take_the_compiled_path(etype):
    """Every event class has a compiled encoder that writes its plain events."""
    record = plain_event(EVENT_TYPES[etype]).to_dict()
    line = _LINE_ENCODERS[etype](record, '{"run":"r",')
    assert line is not None
    assert json.loads(line) == {"run": "r", **record}


@pytest.mark.parametrize("etype", sorted(EVENT_TYPES))
def test_to_dict_key_order(etype):
    cls = EVENT_TYPES[etype]
    record = plain_event(cls).to_dict()
    assert tuple(record) == ("type", *(f.name for f in dataclasses.fields(cls)))
    assert record["type"] == etype


def test_import_compiles_no_encoder():
    """Encoders are built on first use, so importing costs nothing."""
    code = (
        "import repro, repro.obs.capture as c, repro.experiments.runner; "
        "print(len(c._LINE_ENCODERS))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "0"
