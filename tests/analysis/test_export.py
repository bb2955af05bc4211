"""Tests for result/report export."""

import csv
import io
import json

import pytest

from repro.analysis.export import (
    report_to_markdown,
    result_to_dict,
    results_to_csv,
    results_to_json,
    trace_to_json,
)
from repro.analysis.report import ExperimentReport
from repro.core.simulation import RunSpec, run_many
from repro.errors import ConfigurationError
from repro.runtime import StrategySpec
from repro.traces.catalog import MarketKey
from repro.traces.trace import PriceTrace
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


@pytest.fixture(scope="module")
def results():
    cfg = RunSpec(
        strategy=StrategySpec.single(KEY),
        regions=("us-east-1a",), sizes=("small",),
        horizon_s=days(7), label="export-test",
    )
    return run_many(cfg, [1, 2])


def test_result_to_dict_fields(results):
    d = result_to_dict(results[0])
    assert d["label"] == "export-test"
    assert d["seed"] == 1
    assert "savings_percent" in d
    assert isinstance(d["downtime_by_cause"], dict)


def test_json_roundtrip(results, tmp_path):
    path = tmp_path / "out.json"
    results_to_json(results, path)
    loaded = json.loads(path.read_text())
    assert len(loaded) == 2
    assert loaded[0]["total_cost"] == pytest.approx(results[0].total_cost)


def test_json_to_stream(results):
    buf = io.StringIO()
    results_to_json(results, buf)
    assert json.loads(buf.getvalue())[1]["seed"] == 2


def test_csv_roundtrip(results, tmp_path):
    path = tmp_path / "out.csv"
    results_to_csv(results, path)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 2
    assert float(rows[0]["normalized_cost_percent"]) == pytest.approx(
        results[0].normalized_cost_percent
    )
    assert "downtime_by_cause" not in rows[0]


def test_csv_empty_rejected():
    with pytest.raises(ConfigurationError):
        results_to_csv([], io.StringIO())


def test_report_to_markdown():
    r = ExperimentReport("figX", "Title here")
    r.add_artifact("a | b\n--+--\n1 | 2")
    r.compare("metric-a", 1.0, paper=1.2, unit="s")
    r.compare("claim-b", 5.0, expectation="should be big", holds=True)
    r.note("caveat text")
    md = report_to_markdown(r)
    assert md.startswith("## figX: Title here")
    assert "```text" in md
    assert "| metric-a | 1 | 1.2 | s |" in md
    assert "| OK |" in md
    assert "> caveat text" in md


def test_trace_to_json(tmp_path):
    t = PriceTrace([0.0, 100.0], [0.02, 0.05], 200.0, market="small", region="r")
    path = tmp_path / "trace.json"
    trace_to_json(t, path)
    loaded = json.loads(path.read_text())
    assert loaded["times"] == [0.0, 100.0]
    assert loaded["prices"] == [0.02, 0.05]
    assert loaded["market"] == "small"
