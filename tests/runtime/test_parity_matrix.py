"""One mixed batch across every executor configuration a user can reach.

``run_batch`` has a single pipeline — route, partition into catalog
units, run each unit through one loop, complete in the parent — so the
same batch must give the same results, and clone the same runs, at
``jobs`` 1 and 2, with and without a ledger, and across an orchestrator
SIGKILL plus resume. The batch mixes everything the unit partition
distinguishes:

* a frontier sweep over two catalogs whose proactive bids clamp at the
  provider's cap, so rank and band clones occur;
* a faulted spec (its own unit, event-routed);
* a ``NoFaultToleranceStrategy`` spec (not vectorizable, event-routed).

Every configuration is compared with the per-event engine, run spec by
spec.
"""

import dataclasses
import json
import os
import signal
from pathlib import Path

import pytest

from repro.core.bidding import ProactiveBidding
from repro.runtime import RunLedger, RunSpec, StrategySpec, run_batch
from repro.testkit.faults import FaultPlan, run_kill_drill
from repro.traces.catalog import MarketKey
from repro.units import days

REPO = Path(__file__).parents[2]
KEY = MarketKey("us-east-1a", "small")


def matrix_specs():
    """The mixed batch (built identically in the SIGKILL child)."""

    def spec(**kw):
        base = dict(
            strategy=StrategySpec.single(KEY),
            horizon_s=days(5),
            regions=(KEY.region,),
            sizes=(KEY.size,),
        )
        base.update(kw)
        return RunSpec(**base)

    specs = [
        spec(
            strategy=strategy,
            bidding=ProactiveBidding(k=k, reverse_threshold_frac=frac),
            seed=seed,
            label=f"s{seed}/k={k}/f={frac}",
        )
        for seed in (3, 5)
        for k in (1.5, 3.0, 5.0, 7.0, 9.0)  # >= 4 clamps at the bid cap
        for frac in (0.8, 0.95)
        for strategy in (StrategySpec.single(KEY), StrategySpec.pure_spot(KEY))
    ]
    specs += [
        spec(seed=3, faults=FaultPlan(startup_factor=2.0), label="faulted"),
        spec(seed=5, strategy=StrategySpec.no_fault_tolerance(KEY), label="no-ft"),
    ]
    return specs


def _executed(batch) -> int:
    return batch.telemetry.runs - batch.telemetry.deduped_runs


@pytest.fixture(scope="module")
def specs():
    return matrix_specs()


@pytest.fixture(scope="module")
def event_results(specs):
    return run_batch(specs, engine="event").results


@pytest.fixture(scope="module")
def serial(specs):
    return run_batch(specs, jobs=1)


def test_batch_exercises_every_unit_kind(specs, serial):
    assert serial.telemetry.deduped_runs > 0  # clones occur
    kinds = [t.engine_kind for t in serial.run_telemetry]
    assert kinds[-2:] == ["event", "event"]  # faulted, no-ft
    assert set(kinds[:-2]) == {"vector"}  # the sweep


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("ledgered", [False, True], ids=["no-ledger", "ledger"])
def test_results_match_event_engine(tmp_path, specs, event_results, serial, jobs, ledgered):
    ledger = tmp_path / "batch.jsonl" if ledgered else None
    batch = run_batch(specs, jobs=jobs, ledger=ledger)
    assert batch.results == event_results
    assert _executed(batch) <= _executed(serial)
    assert batch.telemetry.deduped_runs == serial.telemetry.deduped_runs
    if ledgered:
        _, state = RunLedger.load(ledger)
        assert sorted(state.records) == list(range(len(specs)))
        clones = [i for i, t in enumerate(batch.run_telemetry) if t.deduped]
        assert clones and all(state.records[i].telemetry.deduped for i in clones)


def _result_bytes(results):
    return json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True).encode()


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2])
def test_sigkill_then_resume_matches_event_engine(tmp_path, specs, event_results, jobs):
    led = tmp_path / "batch.jsonl"
    err_path = tmp_path / "stderr.txt"
    pythonpath = os.pathsep.join([str(REPO / "src"), str(REPO)])
    with open(err_path, "wb") as err:
        # Reaps the orphaned pool workers (jobs=2) and fails if any survive.
        returncode = run_kill_drill(
            "tests.runtime.test_parity_matrix:matrix_specs",
            led,
            jobs=jobs,
            kill_after=7,
            env={**os.environ, "PYTHONPATH": pythonpath},
            stderr=err,
        )
    assert returncode == -signal.SIGKILL, err_path.read_text()
    _, state = RunLedger.load(led)
    journaled = len(state.records)
    assert 7 <= journaled < len(specs)

    resumed = run_batch(specs, ledger=led, resume=True, jobs=jobs)
    assert _result_bytes(resumed.results) == _result_bytes(event_results)
    assert resumed.telemetry.replayed_runs == journaled
    _, state = RunLedger.load(led)
    assert sorted(state.records) == list(range(len(specs)))
