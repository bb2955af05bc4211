"""Market-store property: a served catalog is a fresh build, bit for bit.

The per-process cache generates each market of a (seed, horizon,
calibration) sample once and serves every region/size subset as a view
over those traces. Because every market draws from its own named RNG
streams and every shared shock is memoised by stream name, no request
order may change a single trace. Each drawn request sequence mixes
subsets of all five zones (``us-west-1b`` included) and four sizes, with
and without calibration overrides in either order, and every answer is
compared byte for byte against :func:`build_catalog` of the same
arguments.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.cache import CatalogKey, TraceCatalogCache
from repro.traces.calibration import ALL_REGIONS, SIZES, calibration_for
from repro.traces.catalog import MarketKey, build_catalog
from repro.units import days

HORIZON = days(3)

#: Overrides for a few markets; the rest of a calibrated store's markets
#: fall back to the defaults.
CALIBRATIONS = {
    ("us-east-1a", "small"): calibration_for("us-east-1a", "small", calm_base_frac=0.08),
    ("us-west-1b", "large"): calibration_for("us-west-1b", "large", calm_sigma=0.3),
    ("eu-west-1a", "medium"): calibration_for("eu-west-1a", "medium", turbulent_mult=2.0),
}

requests = st.tuples(
    st.lists(st.sampled_from(ALL_REGIONS), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(SIZES), min_size=1, max_size=len(SIZES), unique=True),
    st.booleans(),  # with the calibration overrides
)


def assert_bit_identical(served, fresh):
    assert served.markets() == fresh.markets()
    assert served.horizon == fresh.horizon
    assert served.source == fresh.source
    for key in fresh.markets():
        a, b = served.trace(key), fresh.trace(key)
        assert a.times.tobytes() == b.times.tobytes(), key
        assert a.prices.tobytes() == b.prices.tobytes(), key
        assert (a.horizon, a.market, a.region) == (b.horizon, b.market, b.region)
        assert served.on_demand_price(key) == fresh.on_demand_price(key)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sequence=st.lists(requests, min_size=1, max_size=5),
)
def test_store_served_catalog_equals_fresh_build(seed, sequence):
    cache = TraceCatalogCache()
    generated: dict = {}  # calibrated? -> markets generated so far
    for regions, sizes, calibrated in sequence:
        calibrations = CALIBRATIONS if calibrated else None
        key = CatalogKey.of(seed, HORIZON, regions, sizes, calibrations)
        served, was_cached, _ = cache.get_or_build(key)
        fresh = build_catalog(seed, HORIZON, regions, sizes, calibrations)
        assert_bit_identical(served, fresh)

        markets = {MarketKey(r, s) for r in regions for s in sizes}
        seen = generated.setdefault(calibrated, set())
        assert was_cached == (markets <= seen)
        seen |= markets
        assert cache.peek(key) is served
