"""Shared spare pool semantics + the sizing sweep underneath.

Covers the multi-consumer contract documented in docs/FLEET.md: half-open
handover windows, quota-before-capacity miss classification, deterministic
ordering of simultaneous claims — and the sizing sweep
(`concurrent_events`) over several services' forced migrations.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spares import (
    MISS_EXHAUSTED,
    MISS_QUOTA,
    SharedSparePool,
    concurrent_events,
)
from repro.testkit.oracles import check_spare_pool

W = 360.0


class TestSharedSparePool:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SharedSparePool(capacity=-1)
        with pytest.raises(ConfigurationError):
            SharedSparePool(capacity=1, handover_window_s=0.0)
        with pytest.raises(ConfigurationError):
            SharedSparePool(capacity=1, default_quota=-1)
        with pytest.raises(ConfigurationError):
            SharedSparePool(capacity=1, quotas={"a": -2})

    def test_empty_replay(self):
        out = SharedSparePool(capacity=2).replay([])
        assert out.claims == out.hits == out.misses == 0
        assert out.hit_rate == 1.0
        assert out.peak_in_use == 0

    def test_all_hits_when_spread_out(self):
        out = SharedSparePool(capacity=1, handover_window_s=W).replay(
            [(0.0, "a"), (1000.0, "b"), (2000.0, "a")]
        )
        assert (out.claims, out.hits, out.misses) == (3, 3, 0)
        assert out.peak_in_use == 1

    def test_pool_exhausted_miss(self):
        out = SharedSparePool(capacity=1, handover_window_s=W).replay(
            [(0.0, "a"), (10.0, "b")]
        )
        assert out.hits == 1 and out.exhausted_misses == 1
        assert out.events[1].miss_reason == MISS_EXHAUSTED

    def test_quota_miss_checked_before_capacity(self):
        # Capacity 2 but service 'a' has quota 1: its second concurrent
        # claim is a *quota* miss even though the pool has a free spare.
        out = SharedSparePool(capacity=2, handover_window_s=W).replay(
            [(0.0, "a"), (10.0, "a")]
        )
        assert out.quota_misses == 1 and out.exhausted_misses == 0
        assert out.events[1].miss_reason == MISS_QUOTA

    def test_quota_overrides(self):
        out = SharedSparePool(
            capacity=2, handover_window_s=W, quotas={"a": 2}
        ).replay([(0.0, "a"), (10.0, "a")])
        assert out.misses == 0 and out.peak_in_use == 2

    def test_half_open_window_release_frees_at_exactly_t_plus_w(self):
        # b's claim lands exactly when a's spare is returned: it is a hit.
        out = SharedSparePool(capacity=1, handover_window_s=W).replay(
            [(0.0, "a"), (W, "b")]
        )
        assert out.misses == 0
        assert out.events[-1].in_use_after == 1

    def test_simultaneous_claims_ordered_by_name(self):
        # One spare, two claims at the same instant: 'a' wins, whatever
        # the input order — the replay is deterministic.
        pool = SharedSparePool(capacity=1, handover_window_s=W)
        fwd = pool.replay([(5.0, "a"), (5.0, "b")])
        rev = pool.replay([(5.0, "b"), (5.0, "a")])
        assert fwd == rev
        assert [e.service for e in fwd.events if e.granted] == ["a"]

    def test_per_service_accounting_sums_to_totals(self):
        out = SharedSparePool(capacity=2, handover_window_s=W).replay(
            [(0.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "a"), (900.0, "c")]
        )
        assert sum(s.claims for s in out.per_service.values()) == out.claims
        assert sum(s.hits for s in out.per_service.values()) == out.hits
        assert sum(s.misses for s in out.per_service.values()) == out.misses

    def test_zero_capacity_pool_misses_everything(self):
        out = SharedSparePool(capacity=0, handover_window_s=W).replay(
            [(0.0, "a"), (10.0, "b")]
        )
        assert out.hits == 0 and out.exhausted_misses == 2

    def test_oracle_green_on_real_replay(self):
        out = SharedSparePool(
            capacity=2, handover_window_s=W, quotas={"a": 2}
        ).replay([(0.0, "a"), (1.0, "a"), (2.0, "b"), (500.0, "b"), (600.0, "c")])
        report = check_spare_pool(out, {"a": 2})
        assert report.passed, report.summary()

    def test_oracle_catches_tampered_accounting(self):
        import dataclasses

        out = SharedSparePool(capacity=2, handover_window_s=W).replay(
            [(0.0, "a"), (1.0, "b"), (2.0, "c")]
        )
        forged = dataclasses.replace(out, hits=out.hits + 1)
        report = check_spare_pool(forged, {})
        assert not report.passed
        assert any(c.name == "spare-pool.accounting" for c in report.failures)


class TestGeneralizedSizing:
    def test_legacy_merge_unchanged(self):
        # Services' forced migrations merge into one sweep over their union.
        assert concurrent_events([0.0, 10.0, 2000.0], window_s=60.0) == 2

    def test_empty(self):
        assert concurrent_events([], 60.0) == 0
