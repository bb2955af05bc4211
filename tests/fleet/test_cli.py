"""repro-fleet CLI: smoke, report writing, byte-identity, error exits."""

import json

from repro.fleet.cli import main

FAST = ["--fast", "--services", "4", "--days", "1"]


def test_fast_smoke(capsys):
    assert main([*FAST, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "fleet: 4 services" in out
    assert "spare pool:" in out
    assert "top 2 services by downtime" in out


def test_top_zero_omits_table(capsys):
    assert main([*FAST, "--top", "0"]) == 0
    assert "by downtime" not in capsys.readouterr().out


def test_verify_flag(capsys):
    assert main([*FAST, "--verify"]) == 0
    assert "fleet invariant oracles green" in capsys.readouterr().out


def test_report_written_as_sorted_json(tmp_path, capsys):
    path = tmp_path / "out" / "fleet.json"
    assert main([*FAST, "--report", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["n_services"] == 4
    assert list(payload) == sorted(payload)


def test_report_byte_identical_across_jobs(tmp_path, capsys):
    p1 = tmp_path / "jobs1.json"
    p2 = tmp_path / "jobs2.json"
    assert main([*FAST, "--jobs", "1", "--report", str(p1)]) == 0
    assert main([*FAST, "--jobs", "2", "--report", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_churn_flag(capsys):
    assert main([*FAST, "--churn-per-week", "14"]) == 0
    assert "arrived" in capsys.readouterr().out


def test_error_exits(capsys):
    assert main([*FAST, "--jobs", "0"]) == 2
    assert main(["--services", "0"]) == 2
    assert main([*FAST, "--resume"]) == 2  # --resume needs --ledger
    capsys.readouterr()


def test_trace_byte_identical_across_jobs_and_summarizable(tmp_path, capsys):
    from repro.obs.cli import main as trace_main

    t1, t2 = tmp_path / "j1.jsonl", tmp_path / "j2.jsonl"
    assert main([*FAST, "--jobs", "1", "--trace", str(t1), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert f"event(s) written to {t1}" in out
    assert "run metrics (merged over all runs):" in out
    assert main([*FAST, "--jobs", "2", "--trace", str(t2)]) == 0
    capsys.readouterr()
    assert t1.stat().st_size > 0
    assert t1.read_bytes() == t2.read_bytes()
    assert trace_main(["summarize", str(t1)]) == 0
    assert "across 4 run(s)" in capsys.readouterr().out


def test_trace_leaves_the_report_unchanged(tmp_path, capsys):
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main([*FAST, "--report", str(plain)]) == 0
    assert main([*FAST, "--report", str(traced), "--trace", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == traced.read_bytes()
