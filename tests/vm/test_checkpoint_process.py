"""Tests for the live background-checkpointing process."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointBoundError, MigrationError
from repro.simulator.engine import Engine
from repro.units import hours
from repro.vm.checkpoint import BoundedCheckpointer
from repro.testkit.checkpoint_process import (
    BackgroundCheckpointProcess,
    DirtyRateProfile,
    FlushRecord,
)
from repro.vm.memory import MemoryProfile

MEM = MemoryProfile(size_gib=2.0, dirty_rate_mbps=100.0, working_set_frac=0.5)


def run_process(profile, sim_s=hours(2), tau=10.0, safety=0.9, mem=MEM):
    eng = Engine()
    proc = BackgroundCheckpointProcess(
        eng, mem, write_bandwidth_mbps=300.0, tau_s=tau, safety=safety,
        profile=profile,
    )
    proc.start()
    eng.run(until=sim_s)
    return eng, proc


class TestProfiles:
    def test_constant(self):
        p = DirtyRateProfile.constant(50.0)
        assert p.rate_at(0) == 50.0
        assert p.rate_at(1e9) == 50.0
        assert p.next_change_after(0) is None

    def test_piecewise(self):
        p = DirtyRateProfile([0.0, 100.0], [10.0, 200.0])
        assert p.rate_at(50.0) == 10.0
        assert p.rate_at(100.0) == 200.0
        assert p.next_change_after(0.0) == 100.0
        assert p.max_rate == 200.0

    def test_validation(self):
        with pytest.raises(MigrationError):
            DirtyRateProfile([], [])
        with pytest.raises(MigrationError):
            DirtyRateProfile([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(MigrationError):
            DirtyRateProfile([0.0], [-1.0])


class TestConstantRate:
    def test_flush_period_matches_analytic_model(self):
        eng, proc = run_process(DirtyRateProfile.constant(100.0))
        analytic = BoundedCheckpointer(
            MEM, write_bandwidth_mbps=300.0, tau_s=10.0
        ).steady_state_period_s()
        # trigger at 0.9 * tau * B, so the loop runs slightly faster than
        # the analytic (full-budget) period, plus the flush time itself
        assert proc.mean_period_s() == pytest.approx(0.9 * analytic, rel=0.2)

    def test_bound_holds_on_dense_grid(self):
        eng, proc = run_process(DirtyRateProfile.constant(100.0))
        for t in np.linspace(0, hours(2) * 0.999, 500):
            assert proc.bound_holds_at(float(t)), f"bound violated at t={t}"

    def test_flush_sizes_at_trigger(self):
        eng, proc = run_process(DirtyRateProfile.constant(100.0))
        for f in proc.flushes:
            assert f.megabits <= proc.trigger_megabits + 1e-6

    def test_idle_vm_never_flushes(self):
        eng, proc = run_process(DirtyRateProfile.constant(0.0))
        assert proc.flush_count() == 0
        assert proc.final_flush_s_if_suspended(hours(1)) == 0.0

    def test_bandwidth_fraction_near_dirty_ratio(self):
        eng, proc = run_process(DirtyRateProfile.constant(100.0))
        frac = proc.bandwidth_fraction_used(0.0, hours(2))
        assert frac == pytest.approx(100.0 / 300.0, rel=0.15)


class TestVaryingRate:
    def test_adapts_to_bursts(self):
        """Quiet then busy: flushes cluster in the busy half."""
        p = DirtyRateProfile([0.0, hours(1)], [5.0, 150.0])
        eng, proc = run_process(p)
        first_half = [f for f in proc.flushes if f.start < hours(1)]
        second_half = [f for f in proc.flushes if f.start >= hours(1)]
        assert len(second_half) > 3 * max(len(first_half), 1)

    def test_bound_holds_through_burst(self):
        p = DirtyRateProfile([0.0, hours(1), hours(1.5)], [5.0, 250.0, 20.0])
        eng, proc = run_process(p)
        for t in np.linspace(0, hours(2) * 0.999, 400):
            assert proc.bound_holds_at(float(t))

    def test_rejects_rate_above_bandwidth(self):
        with pytest.raises(CheckpointBoundError):
            run_process(DirtyRateProfile.constant(400.0))


class TestApi:
    def test_double_start_rejected(self):
        eng = Engine()
        proc = BackgroundCheckpointProcess(eng, MEM)
        proc.start()
        with pytest.raises(MigrationError):
            proc.start()

    def test_query_past_rejected(self):
        eng, proc = run_process(DirtyRateProfile.constant(100.0), sim_s=100.0)
        with pytest.raises(MigrationError):
            proc.backlog_at(-1.0)

    def test_invalid_params(self):
        eng = Engine()
        with pytest.raises(MigrationError):
            BackgroundCheckpointProcess(eng, MEM, tau_s=0.0)
        with pytest.raises(MigrationError):
            BackgroundCheckpointProcess(eng, MEM, safety=0.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=280.0), min_size=1, max_size=8),
    st.floats(min_value=2.0, max_value=30.0),
)
@settings(max_examples=30, deadline=None)
def test_property_bound_holds_for_any_subcritical_profile(rates, tau):
    """Whatever the (sub-bandwidth) dirty-rate schedule, Yank's bound holds
    at every sampled instant."""
    times = [i * 600.0 for i in range(len(rates))]
    profile = DirtyRateProfile(times, rates)
    eng = Engine()
    proc = BackgroundCheckpointProcess(
        eng, MEM, write_bandwidth_mbps=300.0, tau_s=tau, profile=profile
    )
    proc.start()
    sim_s = times[-1] + 1200.0
    eng.run(until=sim_s)
    for t in np.linspace(0, sim_s * 0.999, 120):
        assert proc.final_flush_s_if_suspended(float(t)) <= tau + 1e-9
