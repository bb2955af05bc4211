"""Property-based tests: pool and elastic-fleet invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.provider import CloudProvider
from repro.core.elastic import DemandCurve, ElasticSpotFleet
from repro.fleet.spares import SharedSparePool, concurrent_events
from repro.pool import PoolConfig, SpotPool
from repro.simulator.engine import Engine
from repro.simulator.rng import RngStreams
from repro.traces.catalog import build_catalog
from repro.units import days, hours


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=0, max_size=40),
    st.floats(min_value=1.0, max_value=3600.0),
)
def test_concurrency_bounds(times, window):
    c = concurrent_events(times, window)
    assert 0 <= c <= len(times)
    if times:
        assert c >= 1
    # widening the window can only raise concurrency
    assert concurrent_events(times, window * 2) >= c


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60).map(float),
            st.sampled_from(["a", "b", "c"]),
        ),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=10).map(float),
)
def test_unbounded_pool_peak_is_the_sizing_sweep(claims, window):
    """With room for every claim, the shared pool grants them all, and its
    peak occupancy is the sizing sweep over the claim instants. Instants
    and windows on an integer grid make simultaneous claims and releases
    at a claim's instant (the half-open edge) common."""
    pool = SharedSparePool(
        capacity=len(claims), handover_window_s=window, default_quota=len(claims)
    )
    out = pool.replay(claims)
    assert out.misses == 0
    assert out.peak_in_use == concurrent_events([t for t, _ in claims], window)


@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["diverse", "concentrated"]),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pool_invariants(n_services, placement, seed):
    pool = SpotPool(PoolConfig(
        n_services=n_services, placement=placement, seed=seed,
        horizon_s=days(5), regions=("us-east-1a", "us-east-1b"),
    ))
    r = pool.run()
    assert r.n_services == n_services
    assert r.total_cost >= 0
    assert 0 <= r.spare_servers_needed <= r.total_forced
    assert r.spare_servers_needed <= n_services
    assert 0 <= r.mean_unavailability_percent <= r.worst_unavailability_percent
    assert r.normalized_cost_percent < 150


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=4, max_value=10),
    st.integers(min_value=0, max_value=200),
    st.floats(min_value=0.0, max_value=hours(4)),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_elastic_invariants(base, peak, seed, lead):
    cat = build_catalog(seed=seed, horizon=days(5),
                        regions=("us-east-1a",), sizes=("small",))
    provider = CloudProvider(cat, rng=RngStreams(seed).get("prop/elastic"))
    fleet = ElasticSpotFleet(
        Engine(), provider, DemandCurve.diurnal(base=base, peak=peak),
        cat.markets(), horizon=days(5), provision_lead_s=lead,
    )
    r = fleet.run()
    assert r.total_cost >= 0
    assert 0.0 <= r.shortfall_fraction <= 1.0
    assert r.scale_ups >= base  # at least the initial fleet
    assert r.peak_on_demand_cost >= r.elastic_on_demand_cost
    # every lease was returned
    assert provider.active_leases() == []
    # the fleet can never beat the theoretical floor (min spot price ~ 0)
    assert r.total_cost <= r.peak_on_demand_cost * 1.5
