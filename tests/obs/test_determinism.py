"""Trace capture determinism across the process-pool boundary.

The acceptance bar: the same seed produces the identical event stream
whether the batch runs serially or fanned out, and observing a batch does
not perturb its results.
"""

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.obs import observe
from repro.runtime import RunSpec, StrategySpec, TraceCatalogCache, run_batch
from repro.traces.catalog import MarketKey
from repro.units import days

REGION = "us-east-1a"


def fig6_style_runs(seeds=(11, 23), horizon=days(3)):
    key = MarketKey(REGION, "small")
    return [
        RunSpec(
            strategy=StrategySpec.single(key),
            bidding=bidding,
            seed=seed,
            horizon_s=horizon,
            regions=(REGION,),
            sizes=("small",),
            label=f"{bidding.name}/small",
        )
        for bidding in (ReactiveBidding(), ProactiveBidding())
        for seed in seeds
    ]


def captured_stream(jobs):
    with observe(trace=True) as scope:
        batch = run_batch(fig6_style_runs(), jobs=jobs, cache=TraceCatalogCache())
    return batch, scope


class TestAcrossJobs:
    def test_event_streams_identical_serial_vs_parallel(self):
        batch1, scope1 = captured_stream(jobs=1)
        batch4, scope4 = captured_stream(jobs=4)

        assert [(r.label, r.seed) for r in scope1.runs] == [
            (r.label, r.seed) for r in scope4.runs
        ]
        for serial, parallel in zip(scope1.runs, scope4.runs):
            assert serial.trace_events == parallel.trace_events
            assert serial.metrics == parallel.metrics
        assert batch1.results == batch4.results

    def test_written_jsonl_is_byte_identical(self, tmp_path):
        _, scope1 = captured_stream(jobs=1)
        _, scope2 = captured_stream(jobs=2)
        a, b = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        n1 = scope1.write_jsonl(str(a))
        n2 = scope2.write_jsonl(str(b))
        assert n1 == n2 > 0
        assert a.read_bytes() == b.read_bytes()


class TestObservationIsPassive:
    def test_observing_does_not_change_batch_results(self):
        plain = run_batch(fig6_style_runs(), cache=TraceCatalogCache())
        with observe(trace=True) as scope:
            watched = run_batch(fig6_style_runs(), cache=TraceCatalogCache())
        assert plain.results == watched.results
        assert scope.event_count > 0

    def test_no_scope_means_no_capture(self):
        batch = run_batch(fig6_style_runs(seeds=(11,)), cache=TraceCatalogCache())
        assert all(t.trace_events is None for t in batch.run_telemetry)
        # Metrics stay always-on: they ride telemetry even without a scope.
        assert all(t.metrics is not None for t in batch.run_telemetry)

    def test_every_run_reports_events_and_metrics_under_a_scope(self):
        _, scope = captured_stream(jobs=1)
        assert len(scope.runs) == 4
        assert all(r.trace_events for r in scope.runs)
        assert scope.metrics.counters  # merged across runs
