"""Contract tests for the public API surface.

A downstream user imports from ``repro`` (and subpackage roots); these
tests pin that surface: every exported name resolves, carries a docstring,
and the headline one-liner from the README keeps working.
"""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.cloud",
    "repro.traces",
    "repro.vm",
    "repro.workload",
    "repro.simulator",
    "repro.analysis",
    "repro.pool",
    "repro.fleet",
    "repro.experiments",
]


def test_root_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ exports missing name {name}"


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_subpackage_all_resolves(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__, f"{modname} lacks a module docstring"
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{modname}.__all__ exports missing name {name}"


def test_public_classes_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) and not obj.__doc__:
            undocumented.append(name)
    assert not undocumented, f"classes without docstrings: {undocumented}"


def test_public_functions_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isfunction(obj) and not obj.__doc__:
            undocumented.append(name)
    assert not undocumented, f"functions without docstrings: {undocumented}"


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_readme_quickstart_snippet():
    """The exact flow the README's quickstart shows."""
    from repro import (
        MarketKey, Mechanism, ProactiveBidding, RunSpec,
        StrategySpec, run_simulation,
    )
    from repro.units import days

    key = MarketKey("us-east-1a", "small")
    result = run_simulation(RunSpec(
        strategy=StrategySpec.single(key),
        bidding=ProactiveBidding(k=4.0),
        mechanism=Mechanism.CKPT_LR_LIVE,
        horizon_s=days(7),
        regions=("us-east-1a",), sizes=("small",),
        seed=42,
    ))
    assert 5 < result.normalized_cost_percent < 60
    assert result.unavailability_percent < 0.1


def test_experiment_ids_stable():
    """Experiment ids are a public CLI contract."""
    from repro.experiments import EXPERIMENTS

    must_exist = {"fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                  "fig12", "tab1", "tab2", "tab3", "tab4", "sec62"}
    assert must_exist.issubset(EXPERIMENTS)


def test_error_hierarchy():
    """Every library error is catchable as ReproError."""
    from repro import errors

    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError) or exc is errors.ReproError


def test_entry_points_do_not_import_scipy():
    """scipy is a declared dependency but stays off the import path of the
    package and its CLIs: ``import scipy.signal`` alone costs about a
    second of start-up and tens of MB of RSS (see docs/PERFORMANCE.md)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.experiments.runner, repro.fleet.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(','.join(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "", f"scipy imported: {out.stdout.strip()}"
