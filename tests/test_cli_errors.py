"""Every command-line entry point reports a user mistake the same way:
one line on stderr and exit code 2 (``repro.errors.cli_main``)."""

import importlib
import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, cli_main

REPO = Path(__file__).resolve().parents[1]

#: ``module:function`` of each entry point -> (known-bad argv, stderr text).
#: ``{tmp}`` in an argument is replaced by the test's temporary directory,
#: which holds an empty ``manifest.json``.
BAD_INPUTS = {
    "repro.traces.calibrate_cli:main": (
        ["--segments", "{tmp}"], "manifest.json: not a segment-directory manifest"),
    "repro.experiments.runner:main": (
        ["--fast", "--jobs", "0", "tab2"], "error: jobs must be >= 1, got 0"),
    "repro.fleet.cli:main": (
        ["--fast", "--resume"], "error: resume needs a ledger to replay from"),
    "repro.cli:main": (
        ["--segments", "{tmp}"], "manifest.json: not a segment-directory manifest"),
    "repro.obs.cli:main": (
        ["summarize", "{tmp}/missing.jsonl"], "repro-trace: cannot read"),
    "repro.testkit.cli:main": (
        ["--scenario", "no-such-scenario"], "error: unknown golden scenario 'no-such-scenario'"),
    "repro.traces.ingest:main": (
        ["{tmp}/missing.csv", "-o", "{tmp}"], "already holds an ingested archive"),
}


def _console_scripts():
    text = (REPO / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'^\S+\s*=\s*"([^"]+)"', section, flags=re.MULTILINE)


def test_every_console_script_has_a_bad_input():
    assert set(_console_scripts()) <= set(BAD_INPUTS)


@pytest.mark.parametrize("target", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(target, tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{}")
    argv, message = BAD_INPUTS[target]
    module, func = target.split(":")
    main = getattr(importlib.import_module(module), func)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_missing_archive_is_a_user_error(tmp_path, capsys):
    from repro.traces.ingest import main as ingest_main

    missing = tmp_path / "missing.csv"
    assert ingest_main([str(missing), "-o", str(tmp_path / "seg")]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read archive {missing}: No such file or directory\n"
    )


def test_cli_main_leaves_bugs_alone(capsys):
    @cli_main
    def user_error(argv=None):
        raise ConfigurationError("bad value")

    @cli_main
    def bug(argv=None):
        raise KeyError("oops")

    assert user_error([]) == 2
    assert capsys.readouterr().err == "error: bad value\n"
    with pytest.raises(KeyError):
        bug([])
