"""Trace-catalog cache: generate-once semantics and same-sample guarantees."""

from collections import Counter

import pytest

from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment
from repro.runtime import RunSpec, StrategySpec, TraceCatalogCache, run_batch
from repro.runtime.cache import CatalogKey, shared_catalog, shared_catalog_cache
from repro.traces.catalog import MarketKey, build_catalog
from repro.traces.calibration import REGIONS, SIZES, calibration_for
from repro.traces.generator import TraceGenerator
from repro.units import days

KEY = MarketKey("us-east-1a", "small")


def spec(**kw) -> RunSpec:
    base = dict(
        strategy=StrategySpec.single(KEY),
        horizon_s=days(2),
        regions=("us-east-1a",),
        sizes=("small",),
    )
    base.update(kw)
    return RunSpec(**base)


def catalog_key(seed: int) -> CatalogKey:
    return spec(seed=seed).catalog_key()


class TestCatalogKey:
    def test_same_spec_same_key(self):
        assert catalog_key(1) == catalog_key(1)
        assert hash(catalog_key(1)) == hash(catalog_key(1))

    def test_key_distinguishes_seed_horizon_markets(self):
        assert catalog_key(1) != catalog_key(2)
        assert spec(seed=1).catalog_key() != spec(seed=1, horizon_s=days(3)).catalog_key()
        assert (
            spec(seed=1).catalog_key()
            != spec(seed=1, sizes=("small", "medium")).catalog_key()
        )

    def test_policy_variants_share_a_key(self):
        """The cache key ignores everything that does not shape the trace."""
        a = spec(seed=1, bidding=ProactiveBidding()).catalog_key()
        b = spec(seed=1, bidding=ReactiveBidding()).catalog_key()
        assert a == b

    def test_calibration_overrides_key(self):
        cal = calibration_for("us-east-1a", "small")
        with_cal = spec(seed=1, calibrations={("us-east-1a", "small"): cal})
        assert with_cal.catalog_key() is not None
        assert with_cal.catalog_key() != catalog_key(1)

    def test_build_matches_key(self):
        catalog = TraceCatalogCache().get_or_build(catalog_key(4))[0]
        assert KEY in catalog
        assert catalog.horizon == days(2)


class TestTraceCatalogCache:
    def test_build_once_then_hit(self):
        cache = TraceCatalogCache()
        key = catalog_key(1)
        first, hit1, wall1 = cache.get_or_build(key)
        second, hit2, wall2 = cache.get_or_build(key)
        assert second is first  # identical price sample, not an equal copy
        assert (hit1, hit2) == (False, True)
        assert wall1 > 0 and wall2 == 0
        assert cache.stats()["builds"] == 1 and cache.stats()["hits"] == 1

    def test_lru_eviction(self):
        cache = TraceCatalogCache(maxsize=2)
        k1, k2, k3 = catalog_key(1), catalog_key(2), catalog_key(3)
        cache.get_or_build(k1)
        cache.get_or_build(k2)
        cache.get_or_build(k1)  # refresh k1: k2 becomes LRU
        cache.get_or_build(k3)
        assert k1 in cache and k3 in cache and k2 not in cache

    def test_lru_counts_stores_not_subsets(self):
        """Every region/size subset of one seed lives in one store."""
        cache = TraceCatalogCache(maxsize=1)
        full = CatalogKey.of(1, days(2))
        one = CatalogKey.of(1, days(2), ("us-east-1a",), ("small",))
        cache.get_or_build(one)
        catalog, hit, _ = cache.get_or_build(full)
        assert not hit and len(cache) == 1
        sub, hit, wall = cache.get_or_build(CatalogKey.of(1, days(2), ("eu-west-1a",)))
        assert hit and wall == 0.0
        assert sub.trace(MarketKey("eu-west-1a", "large")) is catalog.trace(
            MarketKey("eu-west-1a", "large")
        )
        assert cache.stats()["builds"] == 2 and cache.stats()["hits"] == 1

    def test_peek_needs_every_market(self):
        cache = TraceCatalogCache()
        cache.get_or_build(CatalogKey.of(1, days(2), ("us-east-1a",)))
        assert cache.peek(CatalogKey.of(1, days(2), ("us-east-1a",), ("small",))) is not None
        assert cache.peek(CatalogKey.of(1, days(2), ("us-east-1a", "us-east-1b"))) is None
        assert cache.peek(CatalogKey.of(2, days(2), ("us-east-1a",))) is None
        assert cache.stats()["builds"] == 1 and cache.stats()["hits"] == 0

    def test_calibrations_get_their_own_store(self):
        cal = {("us-east-1a", "small"): calibration_for("us-east-1a", "small", calm_base_frac=0.08)}
        cache = TraceCatalogCache()
        plain, _, _ = cache.get_or_build(CatalogKey.of(1, days(2), ("us-east-1a",)))
        tuned, hit, _ = cache.get_or_build(
            CatalogKey.of(1, days(2), ("us-east-1a",), calibrations=cal)
        )
        assert not hit and len(cache) == 2
        assert tuned.trace(KEY).mean_price() < plain.trace(KEY).mean_price()

    def test_default_equal_override_shares_the_default_store(self):
        """An override equal to the default calibration generates nothing new."""
        cal = {("us-east-1a", "small"): calibration_for("us-east-1a", "small")}
        cache = TraceCatalogCache()
        plain, _, _ = cache.get_or_build(CatalogKey.of(1, days(2), ("us-east-1a",)))
        same, hit, _ = cache.get_or_build(
            CatalogKey.of(1, days(2), ("us-east-1a",), calibrations=cal)
        )
        assert hit and same is plain and len(cache) == 1

    def test_clear_resets(self):
        cache = TraceCatalogCache()
        cache.get_or_build(catalog_key(1))
        cache.clear()
        assert len(cache) == 0 and cache.builds == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ConfigurationError):
            TraceCatalogCache(maxsize=0)


class TestBatchCaching:
    def test_catalog_built_at_most_once_per_seed_within_batch(self):
        """Acceptance: N policies on S seeds pay exactly S catalog builds."""
        cache = TraceCatalogCache()
        seeds = (11, 23)
        policies = (ProactiveBidding(), ReactiveBidding(), ProactiveBidding(k=2.0))
        runs = [spec(seed=s, bidding=b) for b in policies for s in seeds]
        batch = run_batch(runs, cache=cache)
        assert batch.telemetry.runs == 6
        assert cache.builds == len(seeds)
        assert cache.hits == len(runs) - len(seeds)
        assert batch.telemetry.catalog_builds == len(seeds)
        assert batch.telemetry.catalog_cache_hits == len(runs) - len(seeds)

    def test_same_sample_policy_comparison_catalog_identity(self):
        """Satellite regression: two policies compared on one seed must see
        the *identical* catalog object — the paper's same-sample
        methodology — even across separate batches."""
        cache = TraceCatalogCache()
        proactive = run_batch([spec(seed=11, bidding=ProactiveBidding())], cache=cache)
        reactive = run_batch([spec(seed=11, bidding=ReactiveBidding())], cache=cache)
        assert proactive.run_telemetry[0].catalog_cache_hit is False
        assert reactive.run_telemetry[0].catalog_cache_hit is True
        assert cache.builds == 1
        # The cached object is the one both batches consumed.
        assert cache.peek(catalog_key(11)) is not None

    def test_unhashable_calibrations_are_uncacheable(self):
        """Unhashable calibration overrides yield no cache key (the
        executor then builds the catalog inside the run instead)."""

        class Unhashable(dict):
            __hash__ = None

        cal = calibration_for("us-east-1a", "small")
        odd = spec(
            seed=1,
            calibrations={("us-east-1a", "small"): Unhashable({"x": cal})},
        )
        assert odd.catalog_key() is None


class TestSharedCatalog:
    def test_matches_build_catalog(self):
        regions, sizes = ("us-west-1b", "us-east-1a"), ("large", "small")
        served = shared_catalog(5, days(2), regions, sizes)
        fresh = build_catalog(5, days(2), regions, sizes)
        assert served.markets() == fresh.markets()
        for key in fresh.markets():
            assert served.trace(key).prices.tobytes() == fresh.trace(key).prices.tobytes()
            assert served.trace(key).times.tobytes() == fresh.trace(key).times.tobytes()
        assert shared_catalog(5, days(2), regions, sizes) is served

    def test_fast_figures_generate_each_market_once(self, monkeypatch):
        """fig8, fig9 and fig10 share one sample per seed: across all three
        (runs and direct trace statistics alike) every (seed, market,
        calibration) is generated at most once in the process."""
        generated: Counter = Counter()
        original = TraceGenerator.generate

        def counting(self, cal):
            generated[(self.streams.seed, self.horizon, cal)] += 1
            return original(self, cal)

        monkeypatch.setattr(TraceGenerator, "generate", counting)
        cfg = ExperimentConfig(fast=True)
        shared_catalog_cache().clear()
        try:
            for eid in ("fig8", "fig9", "fig10"):
                run_experiment(eid, cfg)
        finally:
            shared_catalog_cache().clear()
        assert max(generated.values()) == 1
        assert set(generated) == {
            (seed, cfg.effective_horizon(), calibration_for(r, s))
            for seed in cfg.effective_seeds()
            for r in REGIONS
            for s in SIZES
        }


def _archive(tmp_path) -> str:
    """A one-market (us-east-1a/small) segment directory of seed 5's sample."""
    from repro.traces.ingest import ingest_archive
    from repro.traces.loader import save_aws_csv

    source = build_catalog(5, days(2), ("us-east-1a",), ("small",))
    csv_path = tmp_path / "archive.csv"
    save_aws_csv(source.trace(KEY), csv_path, instance_type="m1.small",
                 availability_zone="us-east-1a")
    ingest_archive(csv_path, tmp_path / "seg", horizon=days(2))
    return str((tmp_path / "seg").resolve())


class TestArchiveSource:
    def test_source_key_maps_the_directory_once(self, tmp_path):
        seg = _archive(tmp_path)
        cache = TraceCatalogCache()
        k1, k2 = (spec(seed=s, traces=seg).catalog_key() for s in (1, 2))
        assert k1 != k2  # the seed stays in the key
        assert k1.store_key == k2.store_key == seg
        first, hit1, _ = cache.get_or_build(k1)
        second, hit2, _ = cache.get_or_build(k2)
        assert (hit1, hit2) == (False, True)
        assert second.trace(KEY) is first.trace(KEY) and first.source == seg
        assert len(cache) == 1

    def test_missing_market_is_named(self, tmp_path):
        from repro.core.simulation import run_simulation
        from repro.errors import CalibrationError

        seg = _archive(tmp_path)
        wide = spec(traces=seg, sizes=("small", "large"))
        with pytest.raises(CalibrationError, match="us-east-1a/large"):
            TraceCatalogCache().get_or_build(wide.catalog_key())
        with pytest.raises(CalibrationError, match="us-east-1a/large"):
            run_simulation(wide)

    def test_horizon_past_the_archive_is_refused(self, tmp_path):
        from repro.core.simulation import run_simulation

        seg = _archive(tmp_path)
        with pytest.raises(ConfigurationError, match="runs past the archive"):
            run_simulation(spec(traces=seg, horizon_s=days(3)))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_replay_matches_the_prebuilt_catalog(self, tmp_path, jobs):
        """run_batch resolves ``traces`` through the cache (in workers too)
        and equals build_stack over the same archive passed as
        ``catalog=``; runs of distinct seeds are never cloned onto each
        other, while a repeated seed is."""
        from repro.core.simulation import run_simulation
        from repro.traces.ingest import load_segment_catalog

        seg = _archive(tmp_path)
        specs = [spec(seed=s, traces=seg) for s in (1, 2, 2)]
        batch = run_batch(specs, jobs=jobs, cache=TraceCatalogCache())
        catalog = load_segment_catalog(seg)
        assert list(batch.results) == [run_simulation(s, catalog=catalog) for s in specs]
        assert [r.seed for r in batch.results] == [1, 2, 2]
        assert [t.deduped for t in batch.run_telemetry] == [False, False, True]
