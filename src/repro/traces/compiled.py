"""The compiled query plan of a :class:`~repro.traces.trace.PriceTrace`.

Every scheduler decision in the proactive-bidding loop is a price-trace
interrogation — "when does the price next cross my bid?", "what fraction
of this window sat above on-demand?". The naive answers are O(n) per
call: :func:`repro.testkit.oracles.naive_first_time_above` rebuilds the full
crossing mask, and the window aggregates re-concatenate and re-clip the
whole bounds array even for a one-hour window.

A :class:`CompiledTrace` is the one-time "query compilation" of a trace:

* the segment **bounds** array (``times`` + ``horizon``) is materialised
  once, so window aggregates become two ``searchsorted``\\ s plus
  arithmetic over just the covered segments (O(log n + w) for a
  w-segment window instead of O(n));
* ``times``/``prices`` are mirrored as plain Python lists so scalar
  ``price_at`` lookups run through :func:`bisect.bisect_right` without
  NumPy scalar-boxing overhead;
* crossing tables are **memoized per threshold**. The thresholds a run
  queries form a tiny set — the user bid, the on-demand price, the bid
  cap — so ``first_time_above`` / ``first_time_at_or_below`` and the
  crossing-attribution lookups become O(log n) bisects into tables built
  once per (trace, threshold). Each table also gets a plain-list mirror,
  so these scalar lookups run through :func:`bisect.bisect_right` rather
  than a one-element NumPy ``searchsorted``.

Exactness is a hard contract, not an aspiration: every query here
returns the **bit-identical** float the naive implementation returns,
because the arithmetic is performed on the very same clipped segment
values in the same order (the compiled plan only narrows *which*
segments participate, which the naive mask would have discarded anyway).
``tests/props/test_compiled_equivalence.py`` enforces this with exact
``==`` over random traces, windows and thresholds, and the golden
scenario corpus pins it end to end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TraceFormatError

__all__ = ["CompiledTrace"]


class CompiledTrace:
    """Precomputed index structures over one immutable price step function.

    Parameters
    ----------
    times, prices:
        The owning trace's (already validated, read-only) arrays.
    horizon:
        End of the trace's validity window.

    Instances are created lazily by :attr:`PriceTrace.compiled` and
    shared for the trace's lifetime; all state is derived and immutable.
    """

    __slots__ = (
        "times",
        "prices",
        "horizon",
        "bounds",
        "_n",
        "_times_list",
        "_prices_list",
        "_above",
        "_below",
        "_cross_lists",
        "_rolling",
    )

    def __init__(
        self,
        times: np.ndarray,
        prices: np.ndarray,
        horizon: float,
        bounds: Optional[np.ndarray] = None,
    ) -> None:
        self.times = times
        self.prices = prices
        self.horizon = float(horizon)
        if bounds is None:
            bounds = np.concatenate([times, [horizon]])
            bounds.setflags(write=False)
        else:
            # A precomputed bounds array (e.g. the memory-mapped one inside a
            # compiled segment file) must be exactly ``times + [horizon]`` —
            # spot-check the seams instead of materialising a full compare,
            # so an mmap-backed plan stays lazy.
            if (
                bounds.shape != (times.shape[0] + 1,)
                or float(bounds[0]) != float(times[0])
                or float(bounds[-1]) != self.horizon
                or float(bounds[times.shape[0] - 1]) != float(times[-1])
            ):
                raise TraceFormatError("precomputed bounds do not match times/horizon")
        self.bounds = bounds
        self._n = int(times.shape[0])
        self._times_list = times.tolist()
        self._prices_list = prices.tolist()
        self._above: Dict[float, np.ndarray] = {}
        self._below: Dict[float, np.ndarray] = {}
        #: ``(rising?, threshold)`` -> list mirror of that crossing table.
        self._cross_lists: Dict[Tuple[bool, float], List[float]] = {}
        self._rolling: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------- scalar lookup
    def index_at(self, t: float) -> int:
        """Index of the segment in force at scalar time ``t`` (clamped)."""
        idx = bisect_right(self._times_list, t) - 1
        if idx < 0:
            return 0
        return idx

    def price_at(self, t: float) -> float:
        """Price in force at scalar time ``t`` (same clamping as the trace)."""
        # index_at inlined: every boundary visit asks this at least once.
        idx = bisect_right(self._times_list, t) - 1
        return self._prices_list[idx if idx > 0 else 0]

    def next_change_after(self, t: float) -> Optional[float]:
        """First change time strictly after ``t``, or ``None``."""
        idx = bisect_right(self._times_list, t)
        if idx >= self._n:
            return None
        return self._times_list[idx]

    # ------------------------------------------------------------ window slicing
    def window_bounds(self, t0: float, t1: float) -> Tuple[int, int]:
        """Segment index range ``[first, last)`` overlapping ``[t0, t1)``.

        ``first`` is the segment containing ``t0`` (or 0 when ``t0``
        precedes the trace start); ``last`` counts segments starting
        before ``t1``. Degenerate windows collapse to an empty range.
        """
        first = bisect_right(self._times_list, t0) - 1
        if first < 0:
            first = 0
        last = bisect_left(self._times_list, t1)
        if last < first:
            last = first
        return first, last

    def window(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Clipped ``(durations, prices)`` of the segments in ``[t0, t1)``.

        Bit-for-bit the arrays
        :func:`repro.testkit.oracles.naive_segment_durations` produces.
        By construction of :meth:`window_bounds`, interior
        bounds already lie inside ``[t0, t1]`` — the naive full-array
        ``np.clip`` only ever moves the two endpoint bounds, so two
        scalar adjustments replace it. Where the endpoint-only adjustment
        could differ from a true clip (inverted/degenerate windows, the
        window entirely off-trace) the segment's duration is non-positive
        under both, so the ``dur > 0`` mask discards it identically.
        """
        first, last = self.window_bounds(t0, t1)
        lo = self.bounds[first:last].copy()
        hi = self.bounds[first + 1 : last + 1].copy()
        if lo.shape[0]:
            if lo[0] < t0:
                lo[0] = t0
            if hi[-1] > t1:
                hi[-1] = t1
        dur = hi - lo
        mask = dur > 0
        return dur[mask], self.prices[first:last][mask]

    def _resolve(self, t0: Optional[float], t1: Optional[float]) -> Tuple[float, float]:
        a = float(self.times[0]) if t0 is None else t0
        b = self.horizon if t1 is None else t1
        return a, b

    # -------------------------------------------------------------- aggregates
    def mean_price(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Time-weighted mean price over ``[t0, t1)`` (default whole trace)."""
        a, b = self._resolve(t0, t1)
        dur, prices = self.window(a, b)
        total = dur.sum()
        if total <= 0:
            raise TraceFormatError(f"empty window [{a}, {b})")
        return float(np.dot(dur, prices) / total)

    def price_std(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Time-weighted price standard deviation over the window."""
        a, b = self._resolve(t0, t1)
        dur, prices = self.window(a, b)
        total = dur.sum()
        if total <= 0:
            raise TraceFormatError(f"empty window [{a}, {b})")
        mean = np.dot(dur, prices) / total
        var = np.dot(dur, (prices - mean) ** 2) / total
        return float(np.sqrt(max(var, 0.0)))

    # ----------------------------------------------------- rolling-std table
    def _rolling_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prefix sums of ``d``, ``d*p`` and ``d*p**2`` over the segments.

        ``c_k[i]`` is the cumulative k-th price moment (time-weighted) up
        to ``bounds[i]``; built once, read-only, shared by every
        :meth:`rolling_std` call on this trace.
        """
        cached = self._rolling
        if cached is None:
            d = np.diff(self.bounds)
            p = self.prices
            zero = np.zeros(1)
            c0 = np.concatenate([zero, np.cumsum(d)])
            c1 = np.concatenate([zero, np.cumsum(d * p)])
            c2 = np.concatenate([zero, np.cumsum(d * p * p)])
            for c in (c0, c1, c2):
                c.setflags(write=False)
            cached = self._rolling = (c0, c1, c2)
        return cached

    def _cum_moments(self, t: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, ...]:
        c0, c1, c2 = self._rolling_tables()
        b = self.bounds[k]
        p = self.prices[k]
        frac = t - b
        return (
            c0[k] + frac,
            c1[k] + frac * p,
            c2[k] + frac * p * p,
        )

    def rolling_std(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Time-weighted price std over many ``[t0, t1)`` windows at once.

        **Approximate**, unlike every other query here: the prefix-sum
        difference form (``E[p^2] - E[p]^2``) accumulates rounding the
        exact per-window :meth:`price_std` (clipped-segment dot products)
        does not. The absolute error is bounded by a few units of
        ``n * eps * p_max^2 * (horizon / window)`` in the variance —
        callers needing a sound lower bound on the exact std must
        subtract a slack proportional to the trace's price scale (see
        ``StabilityAwareStrategy.vector_od_adjustment_floor``). Windows
        narrower than one segment and degenerate ``t1 <= t0`` windows
        return 0.
        """
        t0 = np.clip(np.asarray(t0, dtype=np.float64), self.bounds[0], self.horizon)
        t1 = np.clip(np.asarray(t1, dtype=np.float64), self.bounds[0], self.horizon)
        k0 = np.clip(
            np.searchsorted(self.bounds, t0, side="right") - 1, 0, self._n - 1
        )
        k1 = np.clip(
            np.searchsorted(self.bounds, t1, side="right") - 1, 0, self._n - 1
        )
        a0, a1, a2 = self._cum_moments(t0, k0)
        b0, b1, b2 = self._cum_moments(t1, k1)
        total = b0 - a0
        safe = np.maximum(total, 1e-9)
        mean = (b1 - a1) / safe
        var = (b2 - a2) / safe - mean * mean
        std = np.sqrt(np.maximum(var, 0.0))
        std[total <= 0.0] = 0.0
        return std

    def time_above(
        self, threshold: float, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> float:
        """Seconds in the window during which price > ``threshold``."""
        a, b = self._resolve(t0, t1)
        dur, prices = self.window(a, b)
        return float(dur[prices > threshold].sum())

    def max_price(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Maximum price attained in the window."""
        a, b = self._resolve(t0, t1)
        dur, prices = self.window(a, b)
        if prices.size == 0:
            raise TraceFormatError(f"empty window [{a}, {b})")
        return float(prices.max())

    def min_price(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Minimum price attained in the window."""
        a, b = self._resolve(t0, t1)
        dur, prices = self.window(a, b)
        if prices.size == 0:
            raise TraceFormatError(f"empty window [{a}, {b})")
        return float(prices.min())

    # ---------------------------------------------------------- crossing tables
    def crossings_above(self, threshold: float) -> np.ndarray:
        """Rising crossings of ``threshold``, computed once per threshold.

        Same construction as the naive scan (trace-start counts as a
        crossing when the trace opens above the threshold); the result is
        cached read-only and shared by every later query at this
        threshold.
        """
        cached = self._above.get(threshold)
        if cached is None:
            above = self.prices > threshold
            rising = np.flatnonzero(above[1:] & ~above[:-1]) + 1
            cached = self.times[rising]
            if above[0]:
                cached = np.concatenate([[self.times[0]], cached])
            cached.setflags(write=False)
            self._above[threshold] = cached
        return cached

    def crossings_below(self, threshold: float) -> np.ndarray:
        """Falling crossings of ``threshold``, memoized like the rising set."""
        cached = self._below.get(threshold)
        if cached is None:
            above = self.prices > threshold
            falling = np.flatnonzero(~above[1:] & above[:-1]) + 1
            cached = self.times[falling]
            cached.setflags(write=False)
            self._below[threshold] = cached
        return cached

    def _crossing_list(self, rising: bool, threshold: float) -> List[float]:
        """Plain-list mirror of one crossing table, memoized like the table.

        Scalar lookups bisect the list: the same floats in the same order,
        so ``bisect_right`` lands on the index ``searchsorted(side="right")``
        would return, without boxing the probe into a NumPy scalar.
        """
        key = (rising, threshold)
        cached = self._cross_lists.get(key)
        if cached is None:
            table = (
                self.crossings_above(threshold)
                if rising
                else self.crossings_below(threshold)
            )
            cached = self._cross_lists[key] = table.tolist()
        return cached

    def first_time_above(self, threshold: float, from_t: float) -> Optional[float]:
        """Earliest time >= ``from_t`` with price > ``threshold``, or ``None``."""
        if from_t >= self.horizon:
            return None
        if self.price_at(from_t) > threshold:
            start = self._times_list[0]
            return from_t if from_t > start else start
        cross = self._crossing_list(True, threshold)
        idx = bisect_right(cross, from_t)
        return cross[idx] if idx < len(cross) else None

    def first_time_at_or_below(self, threshold: float, from_t: float) -> Optional[float]:
        """Earliest time >= ``from_t`` with price <= ``threshold``, or ``None``."""
        if from_t >= self.horizon:
            return None
        if self.price_at(from_t) <= threshold:
            start = self._times_list[0]
            return from_t if from_t > start else start
        cross = self._crossing_list(False, threshold)
        idx = bisect_right(cross, from_t)
        return cross[idx] if idx < len(cross) else None

    def last_crossing_above_at_or_before(
        self, threshold: float, at: float
    ) -> Optional[float]:
        """Most recent rising crossing of ``threshold`` at or before ``at``."""
        cross = self._crossing_list(True, threshold)
        idx = bisect_right(cross, at)
        return cross[idx - 1] if idx else None

    def last_crossing_below_at_or_before(
        self, threshold: float, at: float
    ) -> Optional[float]:
        """Most recent falling crossing of ``threshold`` at or before ``at``."""
        cross = self._crossing_list(False, threshold)
        idx = bisect_right(cross, at)
        return cross[idx - 1] if idx else None

    # -------------------------------------------------------------- statistics
    def cached_thresholds(self) -> Tuple[int, int]:
        """(rising, falling) table counts — introspection for tests/benchmarks."""
        return len(self._above), len(self._below)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CompiledTrace n={self._n} horizon={self.horizon:.0f}s "
            f"thresholds={len(self._above)}+{len(self._below)}>"
        )
