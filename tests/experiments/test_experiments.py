"""Smoke tests of every experiment driver (fast mode) plus the CLI."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from repro.experiments.registry import get_experiment
from repro.experiments.runner import build_parser, main
from repro.obs import observe

FAST = ExperimentConfig(fast=True)

ALL_IDS = sorted(EXPERIMENTS)


def test_registry_contains_every_paper_artifact():
    paper_artifacts = {
        "fig1", "tab1", "tab2", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "tab3", "tab4", "fig12", "sec62",
    }
    ablations = {"abl-bid", "abl-tau", "abl-stability", "abl-adaptive", "ext-frontier", "ext-pool", "ext-elastic", "ext-sensitivity", "abl-grace", "ext-fleet"}
    assert set(ALL_IDS) == paper_artifacts | ablations


def test_unknown_experiment_raises():
    with pytest.raises(ConfigurationError):
        get_experiment("fig99")


@pytest.mark.parametrize("eid", ALL_IDS)
def test_experiment_runs_and_renders(eid):
    report = run_experiment(eid, FAST)
    out = report.render()
    assert report.experiment_id == eid
    assert len(report.comparisons) >= 3
    assert out and eid in out


# The statistically-noisy experiments get a pass in fast mode; the
# deterministic ones must fully hold even there.
DETERMINISTIC = ["tab1", "tab2", "tab4", "fig12", "fig1", "fig10", "sec62", "tab3"]


@pytest.mark.parametrize("eid", DETERMINISTIC)
def test_deterministic_experiments_hold_in_fast_mode(eid):
    assert run_experiment(eid, FAST).all_hold()


@pytest.mark.parametrize("eid", ["fig6", "ext-sensitivity", "ext-fleet"])
def test_drivers_forward_the_engine_to_every_batch(eid):
    with observe() as scope:
        run_experiment(eid, FAST.with_(engine="event"))
    assert scope.batches
    assert {b.engine for b in scope.batches} == {"event"}
    assert sum(b.vector_runs for b in scope.batches) == 0


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for eid in ALL_IDS:
            assert eid in out

    def test_unknown_id_exits_2(self, capsys):
        assert main(["nonexistent"]) == 2

    def test_run_single(self, capsys):
        rc = main(["tab2", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tab2" in out and "paper-vs-measured" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.days == 30.0
        assert not args.fast
        assert args.jobs == 1

    def test_bad_jobs_exits_2(self, capsys):
        assert main(["tab2", "--fast", "--jobs", "0"]) == 2

    def test_run_parallel_jobs(self, capsys):
        """The --jobs path produces the same report plus a telemetry footer."""
        assert main(["fig11", "--fast", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["fig11", "--fast"]) == 0
        serial = capsys.readouterr().out
        strip = lambda text: [l for l in text.splitlines() if "completed in" not in l]
        assert strip(parallel) == strip(serial)
        assert "cache hits" in parallel and "jobs=2" in parallel


class TestConfig:
    def test_fast_mode_shrinks(self):
        cfg = ExperimentConfig(fast=True)
        assert len(cfg.effective_seeds()) <= 2
        assert cfg.effective_horizon() < ExperimentConfig().effective_horizon()

    def test_with_helper(self):
        cfg = ExperimentConfig().with_(fast=True)
        assert cfg.fast


def test_cli_markdown_export(tmp_path, capsys):
    rc = main(["tab2", "--fast", "--markdown", str(tmp_path)])
    assert rc == 0
    md = (tmp_path / "tab2.md").read_text()
    assert md.startswith("## tab2:")
    assert "| verdict |" in md
