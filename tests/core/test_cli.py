"""Tests for the repro-simulate CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import registry
from repro.traces.calibration import calibration_for
from repro.traces.generator import generate_trace
from repro.traces.loader import save_aws_csv
from repro.units import days

FAST = ["--days", "7", "--seeds", "1", "2"]


def test_default_run(capsys):
    assert main(FAST) == 0
    out = capsys.readouterr().out
    assert "single / proactive" in out
    assert "four-nines target" in out
    assert "mean over 2 seeds" in out


def test_reactive_run(capsys):
    assert main(FAST + ["--bidding", "reactive", "--size", "large"]) == 0
    assert "reactive" in capsys.readouterr().out


def test_multi_market(capsys):
    assert main(FAST + ["--strategy", "multi-market", "--region", "us-east-1b"]) == 0
    assert "multi-market" in capsys.readouterr().out


def test_multi_region(capsys):
    rc = main(FAST + ["--strategy", "multi-region",
                      "--region", "us-east-1a", "eu-west-1a"])
    assert rc == 0


def test_stability_strategy(capsys):
    rc = main(FAST + ["--strategy", "stability",
                      "--region", "us-east-1b", "eu-west-1a",
                      "--stability-weight", "4.0"])
    assert rc == 0


def test_pure_spot_and_on_demand(capsys):
    assert main(FAST + ["--strategy", "pure-spot"]) == 0
    assert main(FAST + ["--strategy", "on-demand"]) == 0


def test_pessimistic_mechanism(capsys):
    assert main(FAST + ["--mechanism", "ckpt", "--pessimistic"]) == 0
    assert "(pessimistic)" in capsys.readouterr().out


def test_single_seed_no_aggregate_line(capsys):
    assert main(["--days", "7", "--seeds", "5"]) == 0
    assert "mean over" not in capsys.readouterr().out


def test_csv_replay(tmp_path, capsys):
    trace = generate_trace(calibration_for("us-east-1a", "small"), days(7), seed=3)
    path = tmp_path / "hist.csv"
    save_aws_csv(trace, path, instance_type="m1.small", availability_zone="us-east-1a")
    assert main(["--csv", str(path)]) == 0
    assert "single / proactive" in capsys.readouterr().out


def test_csv_rejected_for_multi_strategies(tmp_path, capsys):
    trace = generate_trace(calibration_for("us-east-1a", "small"), days(7), seed=3)
    path = tmp_path / "hist.csv"
    save_aws_csv(trace, path)
    rc = main(["--csv", str(path), "--strategy", "multi-market"])
    assert rc == 2


def test_list_strategies_vector_cell_is_the_example_instance_flag(capsys):
    assert main(["--list-strategies"]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 5:
            rows[cells[0]] = cells[2]
    kinds = registry.strategy_kinds()
    assert set(kinds) <= set(rows)
    for kind in kinds:
        built = registry.example_spec(kind).build()
        assert rows[kind] == ("yes" if built.vectorizable else "no"), kind
    assert rows["no-ft"] == "no" and rows["single"] == "yes"


def test_parser_rejects_unknown_region():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--region", "mars-1a"])


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.strategy == "single"
    assert args.k == 4.0
    assert args.mechanism == "ckpt+lr+live"


def _segment_dir(tmp_path, seed=3):
    from repro.traces.ingest import ingest_archive

    trace = generate_trace(calibration_for("us-east-1a", "small"), days(7), seed=seed)
    path = tmp_path / "hist.csv"
    save_aws_csv(trace, path, instance_type="m1.small", availability_zone="us-east-1a")
    # Default horizon: last record + 1h, matching load_aws_csv's default,
    # so --segments and --csv replays see the exact same trace frame.
    ingest_archive(path, tmp_path / "seg")
    return tmp_path / "seg", path


def test_segment_replay(tmp_path, capsys):
    seg, _ = _segment_dir(tmp_path)
    assert main(["--segments", str(seg)]) == 0
    assert "single / proactive" in capsys.readouterr().out


def test_segment_replay_matches_csv_replay(tmp_path, capsys):
    """--segments and --csv print identical per-seed rows for the same
    archive: the mmap path changes nothing but the storage."""
    seg, csv_path = _segment_dir(tmp_path)
    assert main(["--csv", str(csv_path)]) == 0
    csv_out = capsys.readouterr().out
    assert main(["--segments", str(seg)]) == 0
    seg_out = capsys.readouterr().out
    assert csv_out == seg_out


def test_segment_replay_unknown_market(tmp_path, capsys):
    seg, _ = _segment_dir(tmp_path)
    with pytest.raises(Exception):  # TraceFormatError lists available markets
        main(["--segments", str(seg), "--size", "xlarge"])


def test_csv_and_segments_mutually_exclusive(tmp_path, capsys):
    seg, csv_path = _segment_dir(tmp_path)
    assert main(["--csv", str(csv_path), "--segments", str(seg)]) == 2


def test_segments_rejected_for_multi_strategies(tmp_path, capsys):
    seg, _ = _segment_dir(tmp_path)
    assert main(["--segments", str(seg), "--strategy", "multi-market"]) == 2


def test_segments_rejected_with_ledger(tmp_path, capsys):
    seg, _ = _segment_dir(tmp_path)
    rc = main(["--segments", str(seg), "--ledger", str(tmp_path / "ledger")])
    assert rc == 2


def test_calibrate_cli_fits_segments(tmp_path, capsys):
    from repro.traces.calibrate_cli import main as calibrate_main
    from repro.traces.refit import load_calibrations

    seg, _ = _segment_dir(tmp_path)
    out = tmp_path / "cals.json"
    assert calibrate_main(["--segments", str(seg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "fitted calibrations" in printed
    cals = load_calibrations(out)
    assert ("us-east-1a", "small") in cals


def test_calibrate_cli_fits_csv_directly(tmp_path, capsys):
    from repro.traces.calibrate_cli import main as calibrate_main

    _, csv_path = _segment_dir(tmp_path)
    assert calibrate_main(["--csv", str(csv_path)]) == 0
    assert "fitted calibrations" in capsys.readouterr().out


def test_calibrate_cli_requires_exactly_one_source(tmp_path, capsys):
    from repro.traces.calibrate_cli import main as calibrate_main

    seg, csv_path = _segment_dir(tmp_path)
    assert calibrate_main([]) == 2
    assert calibrate_main(["--segments", str(seg), "--csv", str(csv_path)]) == 2


def test_calibrate_cli_reports_refit_errors(tmp_path, capsys):
    from repro.traces.calibrate_cli import main as calibrate_main

    assert calibrate_main(["--segments", str(tmp_path)]) == 1
    assert "refit failed" in capsys.readouterr().err
