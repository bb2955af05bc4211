"""Shared Hypothesis generators for property-based tests.

One generator set, drawn from by ``tests/props/`` and available to
downstream users (requires the ``test`` extra for ``hypothesis``):

* :func:`traces` / :func:`trace_and_time` / :func:`trace_and_lease` —
  well-formed random step functions and query points/lease windows;
* :func:`memories` / :func:`links` — VM memory profiles and region links
  for the migration-mechanism laws;
* :func:`calibrations` — random-but-valid market calibrations;
* :func:`worlds` — a full random market world plus a policy selection;
* :func:`fault_plans` — random :class:`~repro.testkit.faults.FaultPlan`
  instances for chaos-mode testing;
* :func:`tracking_bands` / :func:`risk_estimates` — inputs for the
  related-work policy families (:mod:`repro.core.policies`):
  index-tracking band configurations and LP risk/cost problem instances.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from repro.testkit.faults import FaultPlan, PriceSpike
from repro.traces.calibration import calibration_for
from repro.traces.trace import PriceTrace
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "traces",
    "trace_and_time",
    "trace_and_lease",
    "memories",
    "links",
    "calibrations",
    "worlds",
    "fault_plans",
    "tracking_bands",
    "risk_estimates",
]


@st.composite
def traces(draw, max_points: int = 40) -> PriceTrace:
    """A well-formed random :class:`~repro.traces.trace.PriceTrace`."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    gaps = draw(
        st.lists(st.floats(min_value=0.5, max_value=5000.0), min_size=n, max_size=n)
    )
    times = np.cumsum(np.asarray(gaps)) - gaps[0]
    prices = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    tail = draw(st.floats(min_value=0.5, max_value=5000.0))
    return PriceTrace(times, np.asarray(prices), float(times[-1] + tail))


@st.composite
def trace_and_time(draw):
    """A random trace plus an in-range query time."""
    t = draw(traces())
    at = draw(st.floats(min_value=0.0, max_value=1.0))
    return t, t.start + at * (t.horizon - t.start) * 0.999


@st.composite
def trace_and_lease(draw):
    """A random trace plus a lease window ``(trace, start, end)`` inside it."""
    n = draw(st.integers(min_value=1, max_value=20))
    gaps = draw(st.lists(st.floats(min_value=60.0, max_value=20000.0), min_size=n, max_size=n))
    times = np.cumsum(np.asarray(gaps)) - gaps[0]
    prices = draw(
        st.lists(st.floats(min_value=0.001, max_value=2.0), min_size=n, max_size=n)
    )
    horizon = float(times[-1] + 200000.0)
    trace = PriceTrace(times, np.asarray(prices), horizon)
    start = draw(st.floats(min_value=0.0, max_value=horizon / 3))
    dur = draw(st.floats(min_value=0.0, max_value=horizon / 3))
    return trace, start, start + dur


@st.composite
def memories(draw):
    """A random VM memory profile."""
    from repro.vm.memory import MemoryProfile

    size = draw(st.floats(min_value=0.5, max_value=16.0))
    dirty = draw(st.floats(min_value=0.0, max_value=250.0))
    ws = draw(st.floats(min_value=0.02, max_value=0.5))
    return MemoryProfile(size_gib=size, dirty_rate_mbps=dirty, working_set_frac=ws)


@st.composite
def links(draw):
    """A random intra-region network link."""
    from repro.cloud.regions import RegionLink

    bw = draw(st.floats(min_value=280.0, max_value=1000.0))
    return RegionLink(intra=True, memory_bandwidth_mbps=bw, disk_bandwidth_mbps=bw, rtt_ms=1.0)


@st.composite
def calibrations(draw):
    """A random-but-valid market calibration for the trace generator."""
    calm = draw(st.floats(min_value=0.06, max_value=0.44))
    sigma = draw(st.floats(min_value=0.0, max_value=0.5))
    blip_rate = draw(st.floats(min_value=0.0, max_value=0.05))
    spike_rate = draw(st.floats(min_value=0.0, max_value=0.05))
    sharp_rate = draw(st.floats(min_value=0.0, max_value=0.01))
    change_rate = draw(st.floats(min_value=0.5, max_value=12.0))
    cal = calibration_for(
        "us-east-1a",
        "small",
        calm_base_frac=calm,
        calm_sigma=sigma,
        calm_change_rate_per_hour=change_rate,
    )
    return replace(
        cal,
        blips=replace(cal.blips, rate_per_hour=blip_rate),
        spikes=replace(cal.spikes, rate_per_hour=spike_rate),
        sharp_spikes=replace(cal.sharp_spikes, rate_per_hour=sharp_rate),
    )


@st.composite
def worlds(draw):
    """A random market world plus a random policy selection:
    ``(seed, calibration, policy)`` with policy in
    ``{'proactive', 'reactive', 'pure-spot', 'multi'}``."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    calm = draw(st.floats(min_value=0.08, max_value=0.44))
    spike_rate = draw(st.floats(min_value=0.0, max_value=0.05))
    sharp_rate = draw(st.floats(min_value=0.0, max_value=0.01))
    cal = calibration_for(
        "us-east-1a",
        "small",
        calm_base_frac=calm,
    )
    cal = replace(
        cal,
        spikes=replace(cal.spikes, rate_per_hour=spike_rate),
        sharp_spikes=replace(cal.sharp_spikes, rate_per_hour=sharp_rate),
    )
    policy = draw(st.sampled_from(["proactive", "reactive", "pure-spot", "multi"]))
    return seed, cal, policy


@st.composite
def fault_plans(draw, horizon_s: float = 7 * 24 * SECONDS_PER_HOUR) -> FaultPlan:
    """A random :class:`~repro.testkit.faults.FaultPlan` over ``horizon_s``.

    Covers the whole schema: 0-4 scripted spikes (sometimes correlated,
    factors straddling the 4x bid cap), checkpoint delays/failures, and
    stretched disk-copy/startup times. Crash schedules are left out —
    they belong to executor tests, not scheduler chaos.
    """
    n_spikes = draw(st.integers(min_value=0, max_value=4))
    spikes = []
    for _ in range(n_spikes):
        start = draw(st.floats(min_value=0.0, max_value=horizon_s * 0.9))
        dur = draw(st.floats(min_value=120.0, max_value=6 * SECONDS_PER_HOUR))
        factor = draw(st.floats(min_value=1.5, max_value=8.0))
        correlated = draw(st.booleans())
        spikes.append(
            PriceSpike(
                start_s=start,
                duration_s=dur,
                factor=factor,
                markets=None if correlated else ("us-east-1a/small",),
            )
        )
    delay = draw(st.sampled_from([0.0, 5.0, 30.0, 120.0]))
    fail_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    disk = draw(st.floats(min_value=0.5, max_value=4.0))
    startup = draw(st.floats(min_value=0.5, max_value=3.0))
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        spikes=tuple(spikes),
        checkpoint_delay_s=delay,
        checkpoint_failure_rate=fail_rate,
        disk_copy_factor=disk,
        startup_factor=startup,
    )


@st.composite
def tracking_bands(draw):
    """An index-tracking configuration ``(band, n_markets)`` spanning the
    tight-to-loose range :class:`~repro.core.policies.IndexTrackingStrategy`
    accepts."""
    band = draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    n_markets = draw(st.integers(min_value=1, max_value=4))
    return band, n_markets


@st.composite
def risk_estimates(draw, max_markets: int = 6):
    """An LP problem instance ``(costs, risks, risk_cap)`` for
    :func:`~repro.core.policies.solve_portfolio_lp`: per-market fleet
    rates, trailing-window revocation-risk estimates in ``[0, 1]``, and a
    risk cap. Infeasible instances (every market over the cap) are drawn
    on purpose — the solver must return ``None`` for them."""
    n = draw(st.integers(min_value=1, max_value=max_markets))
    costs = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    risks = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    risk_cap = draw(st.floats(min_value=0.0, max_value=0.6, allow_nan=False))
    return costs, risks, risk_cap
