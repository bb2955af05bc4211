"""One execution-options surface: the shared flag group and its rules."""

import argparse

import pytest

from repro.cli import build_parser as simulate_parser
from repro.cli import main as simulate_main
from repro.errors import ConfigurationError
from repro.experiments.runner import build_parser as experiments_parser
from repro.experiments.runner import main as experiments_main
from repro.fleet.cli import build_parser as fleet_parser
from repro.fleet.cli import main as fleet_main
from repro.runtime import ENGINE_KINDS, ExecutionOptions, add_execution_options, run_batch

SHARED = ("--jobs", "--engine", "--ledger", "--resume", "--trace", "--metrics")
PARSERS = {
    "repro-simulate": simulate_parser,
    "repro-experiments": experiments_parser,
    "repro-fleet": fleet_parser,
}
#: Each CLI's argv for a quick run, before the execution flags.
QUICK = {
    "repro-simulate": (simulate_main, ["--fast", "--days", "1", "--seeds", "1"]),
    "repro-experiments": (experiments_main, ["--fast", "tab1"]),
    "repro-fleet": (fleet_main, ["--fast", "--services", "2", "--days", "1"]),
}


def _actions(parser: argparse.ArgumentParser):
    return {opt: a for a in parser._actions for opt in a.option_strings}


def _signature(action: argparse.Action):
    return (
        action.option_strings, action.dest, action.default, action.type,
        action.choices, action.help, action.metavar, action.nargs, action.const,
    )


def _group():
    p = argparse.ArgumentParser()
    add_execution_options(p)
    return _actions(p)


def test_group_declares_exactly_the_shared_flags():
    assert {opt for opt in _group() if opt.startswith("--")} - {"--help"} == set(SHARED)


@pytest.mark.parametrize("prog", sorted(PARSERS))
@pytest.mark.parametrize("flag", SHARED)
def test_every_cli_declares_the_shared_flag_identically(prog, flag):
    assert _signature(_actions(PARSERS[prog]())[flag]) == _signature(_group()[flag])


def test_parser_defaults_are_the_option_defaults():
    args = argparse.ArgumentParser()
    add_execution_options(args)
    assert ExecutionOptions.from_args(args.parse_args([])) == ExecutionOptions()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--resume"], "resume needs a ledger"),
    ],
)
def test_every_cli_rejects_bad_options_with_one_message(flags, message, capsys):
    errors = set()
    for prog, (main, argv) in QUICK.items():
        assert main([*argv, *flags]) == 2, prog
        captured = capsys.readouterr()
        assert captured.out == "", prog
        errors.add(captured.err)
    assert len(errors) == 1
    assert message in errors.pop()


class TestExecutionOptions:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert (opts.jobs, opts.engine, opts.ledger, opts.resume) == (1, "auto", None, False)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_must_be_positive(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            ExecutionOptions(jobs=jobs)

    @pytest.mark.parametrize("engine", ["vector", "fused", ""])
    def test_engine_must_be_a_kind(self, engine):
        with pytest.raises(ConfigurationError, match=", ".join(ENGINE_KINDS)):
            ExecutionOptions(engine=engine)

    def test_resume_needs_a_ledger(self, tmp_path):
        with pytest.raises(ConfigurationError, match="resume needs a ledger"):
            ExecutionOptions(resume=True)
        assert ExecutionOptions(ledger=tmp_path, resume=True).resume

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionOptions().jobs = 2  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(jobs=0), dict(engine="vector"), dict(resume=True)],
    )
    def test_run_batch_applies_the_same_rules(self, kwargs):
        from repro.runtime import RunSpec, StrategySpec
        from repro.traces.catalog import MarketKey
        from repro.units import days

        spec = RunSpec(
            strategy=StrategySpec.single(MarketKey("us-east-1a", "small")),
            horizon_s=days(1), regions=("us-east-1a",), sizes=("small",),
        )
        with pytest.raises(ConfigurationError) as raised:
            run_batch([spec], **kwargs)
        with pytest.raises(ConfigurationError) as direct:
            ExecutionOptions(**kwargs)
        assert str(raised.value) == str(direct.value)
