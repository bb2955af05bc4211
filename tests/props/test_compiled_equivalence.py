"""Exact-equivalence suite: every compiled query == its naive oracle.

The compiled query plan (:mod:`repro.traces.compiled`) promises
*bit-identical* answers to the reference ``naive_*`` functions of
:mod:`repro.testkit.oracles` — not approximately equal, ``==`` equal. This suite
enforces the contract over random traces, windows and thresholds; any
drift here means a scheduler decision could differ between the fast and
reference paths, which the golden corpus would surface much less
legibly.
"""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.testkit.oracles import (
    naive_crossings_above,
    naive_crossings_below,
    naive_first_time_above,
    naive_first_time_at_or_below,
    naive_max_price,
    naive_mean_price,
    naive_min_price,
    naive_next_change_after,
    naive_price_at,
    naive_price_std,
    naive_segment_durations,
    naive_segments,
    naive_time_above,
)
from repro.testkit.strategies import trace_and_lease, trace_and_time, traces

#: Thresholds spanning the strategy's price range (1e-4 .. 100) plus the
#: out-of-range extremes, so crossing tables get exercised empty and full.
thresholds = st.floats(min_value=1e-5, max_value=200.0, allow_nan=False)


def _windows(pair):
    """Expand a (trace, start, end) lease into interesting query windows."""
    trace, w0, w1 = pair
    return [
        (w0, w1),
        (None, None),
        (None, w1),
        (w0, None),
        (w0, w0),  # degenerate: both paths must raise identically
    ]


# ------------------------------------------------------------- scalar lookups
@given(trace_and_time())
def test_price_at_scalar_matches_naive(pair):
    trace, t = pair
    assert trace.price_at(t) == naive_price_at(trace, t)
    assert trace.compiled.price_at(t) == naive_price_at(trace, t)


@given(trace_and_time())
def test_price_at_clamps_match_naive(pair):
    trace, _ = pair
    for t in (trace.start - 123.0, trace.start, trace.horizon, trace.horizon + 456.0):
        assert trace.price_at(float(t)) == naive_price_at(trace, float(t))


@given(trace_and_time())
def test_next_change_after_matches_naive(pair):
    trace, t = pair
    for probe in (t, trace.start, float(trace.times[-1]), trace.horizon):
        assert trace.next_change_after(probe) == naive_next_change_after(trace, probe)


# ---------------------------------------------------------- window aggregates
@given(trace_and_lease())
def test_mean_price_matches_naive(pair):
    trace = pair[0]
    for t0, t1 in _windows(pair):
        try:
            fast = trace.mean_price(t0, t1)
        except TraceFormatError as exc:
            with pytest.raises(TraceFormatError) as err:
                naive_mean_price(trace, t0, t1)
            assert str(err.value) == str(exc)
        else:
            assert fast == naive_mean_price(trace, t0, t1)


@given(trace_and_lease())
def test_price_std_matches_naive(pair):
    trace = pair[0]
    for t0, t1 in _windows(pair):
        try:
            fast = trace.price_std(t0, t1)
        except TraceFormatError:
            with pytest.raises(TraceFormatError):
                naive_price_std(trace, t0, t1)
        else:
            assert fast == naive_price_std(trace, t0, t1)


@given(trace_and_lease(), thresholds)
def test_time_above_matches_naive(pair, threshold):
    trace = pair[0]
    for t0, t1 in _windows(pair):
        assert trace.time_above(threshold, t0, t1) == naive_time_above(
            trace, threshold, t0, t1
        )


@given(trace_and_lease())
def test_max_min_price_match_naive(pair):
    trace = pair[0]
    for t0, t1 in _windows(pair):
        try:
            fast = trace.max_price(t0, t1)
        except TraceFormatError:
            with pytest.raises(TraceFormatError):
                naive_max_price(trace, t0, t1)
        else:
            assert fast == naive_max_price(trace, t0, t1)
            assert trace.min_price(t0, t1) == naive_min_price(trace, t0, t1)


@given(trace_and_lease())
def test_window_arrays_match_segment_durations(pair):
    trace, t0, t1 = pair
    dur_f, pr_f = trace.compiled.window(t0, t1)
    dur_n, pr_n = naive_segment_durations(trace, t0, t1)
    np.testing.assert_array_equal(dur_f, dur_n)
    np.testing.assert_array_equal(pr_f, pr_n)


# --------------------------------------------------------------- crossings
@given(traces(), thresholds)
def test_crossings_match_naive(trace, threshold):
    np.testing.assert_array_equal(
        trace.crossings_above(threshold), naive_crossings_above(trace, threshold)
    )
    np.testing.assert_array_equal(
        trace.crossings_below(threshold), naive_crossings_below(trace, threshold)
    )


@given(traces())
def test_crossings_at_exact_prices_match_naive(trace):
    # Thresholds equal to actual trace prices hit the > / <= boundary.
    for threshold in trace.prices[:5].tolist():
        np.testing.assert_array_equal(
            trace.crossings_above(threshold), naive_crossings_above(trace, threshold)
        )
        np.testing.assert_array_equal(
            trace.crossings_below(threshold), naive_crossings_below(trace, threshold)
        )


@given(trace_and_time(), thresholds)
def test_first_time_above_matches_naive(pair, threshold):
    trace, from_t = pair
    for probe in (from_t, trace.start - 50.0, trace.horizon, trace.horizon + 1.0):
        assert trace.first_time_above(threshold, probe) == naive_first_time_above(trace, threshold, probe
        )


@given(trace_and_time(), thresholds)
def test_first_time_at_or_below_matches_naive(pair, threshold):
    trace, from_t = pair
    for probe in (from_t, trace.start - 50.0, trace.horizon, trace.horizon + 1.0):
        assert trace.first_time_at_or_below(
            threshold, probe
        ) == naive_first_time_at_or_below(trace, threshold, probe)


@given(trace_and_time(), thresholds)
def test_last_crossing_lookups_match_filtered_naive(pair, threshold):
    trace, at = pair
    ups = naive_crossings_above(trace, threshold)
    downs = naive_crossings_below(trace, threshold)
    want_up = float(ups[ups <= at][-1]) if np.any(ups <= at) else None
    want_down = float(downs[downs <= at][-1]) if np.any(downs <= at) else None
    assert trace.compiled.last_crossing_above_at_or_before(threshold, at) == want_up
    assert trace.compiled.last_crossing_below_at_or_before(threshold, at) == want_down


@given(traces(), thresholds)
def test_bisect_lookups_at_edges_match_naive(trace, threshold):
    """The list-bisect crossing lookups on their edge probes: exactly on a
    crossing, before the trace start, at the start and at the horizon,
    for a random threshold and thresholds equal to trace prices."""
    comp = trace.compiled
    for level in [threshold, *trace.prices[:3].tolist()]:
        ups = naive_crossings_above(trace, level)
        downs = naive_crossings_below(trace, level)
        probes = [trace.start - 50.0, trace.start, trace.horizon]
        probes += ups[:3].tolist() + downs[:3].tolist()
        for at in probes:
            for fast, slow in (
                (comp.first_time_above(level, at), naive_first_time_above(trace, level, at)),
                (
                    comp.first_time_at_or_below(level, at),
                    naive_first_time_at_or_below(trace, level, at),
                ),
            ):
                assert fast == slow
                assert fast is None or type(fast) is float
            want_up = float(ups[ups <= at][-1]) if np.any(ups <= at) else None
            want_down = float(downs[downs <= at][-1]) if np.any(downs <= at) else None
            assert comp.last_crossing_above_at_or_before(level, at) == want_up
            assert comp.last_crossing_below_at_or_before(level, at) == want_down


# ---------------------------------------------------------- segments / slice
@given(trace_and_lease())
def test_segments_match_naive(pair):
    trace, t0, t1 = pair
    for window in ((t0, t1), (None, None), (t0, None), (None, t1), (t1, t0)):
        assert list(trace.segments(*window)) == list(naive_segments(trace, *window))


@given(trace_and_lease())
def test_slice_matches_naive_segments(pair):
    trace, t0, t1 = pair
    assume(t0 < t1)
    sub = trace.slice(t0, t1)
    segs = list(naive_segments(trace, t0, t1))
    np.testing.assert_array_equal(sub.times, np.array([s for s, _, _ in segs]))
    np.testing.assert_array_equal(sub.prices, np.array([p for _, _, p in segs]))
    assert sub.horizon == t1
    assert sub.market == trace.market and sub.region == trace.region


# --------------------------------------------------- compiled-plan lifecycle
@given(traces(), thresholds)
def test_pickle_round_trip_preserves_answers(trace, threshold):
    trace.crossings_above(threshold)  # populate a memo table pre-pickle
    clone = pickle.loads(pickle.dumps(trace))
    assert clone._compiled is None  # derived state is dropped, rebuilt lazily
    assert clone.mean_price() == trace.mean_price()
    np.testing.assert_array_equal(
        clone.crossings_above(threshold), trace.crossings_above(threshold)
    )
    assert clone.time_above(threshold) == trace.time_above(threshold)
