"""The :class:`PriceTrace` step-function data structure.

A spot-price history is a right-open step function: the price set at
``times[i]`` holds on ``[times[i], times[i+1])`` and the last price holds to
``horizon``. Queries are answered through a lazily built
:class:`~repro.traces.compiled.CompiledTrace` query plan — window
aggregates become two ``searchsorted``\\ s over precomputed segment bounds
and threshold crossings hit per-threshold memoized tables — so month-long
traces with thousands of change points stay cheap even when the scheduler
interrogates them at every decision point.

The original O(n) implementations live on as the ``naive_*`` functions of
:mod:`repro.testkit.oracles`: they are the reference oracle for the
exact-equivalence property suite
(``tests/props/test_compiled_equivalence.py``), and every public query is
guaranteed to return the bit-identical float its naive twin returns.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import TraceFormatError
from repro.traces.compiled import CompiledTrace

__all__ = ["PriceTrace"]


class PriceTrace:
    """An immutable spot-price step function.

    Parameters
    ----------
    times:
        Strictly increasing change times in seconds; ``times[0]`` is the
        trace start.
    prices:
        Price (USD/hour) in force from each change time; same length.
    horizon:
        End of the trace's validity (seconds); must be > ``times[-1]``.

    Invariants (enforced at construction):

    * ``len(times) == len(prices) >= 1``
    * ``times`` strictly increasing, ``prices`` strictly positive and finite
    * ``horizon > times[-1]``
    """

    __slots__ = ("times", "prices", "horizon", "market", "region", "_compiled", "_bounds")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        prices: Sequence[float] | np.ndarray,
        horizon: float,
        *,
        market: str = "",
        region: str = "",
        bounds: np.ndarray | None = None,
    ) -> None:
        t = np.ascontiguousarray(times, dtype=np.float64)
        p = np.ascontiguousarray(prices, dtype=np.float64)
        if t.ndim != 1 or p.ndim != 1:
            raise TraceFormatError("times and prices must be 1-D")
        if t.shape != p.shape:
            raise TraceFormatError(f"length mismatch: {t.shape[0]} times vs {p.shape[0]} prices")
        if t.shape[0] == 0:
            raise TraceFormatError("trace must contain at least one point")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(p)):
            raise TraceFormatError("times/prices must be finite")
        if np.any(np.diff(t) <= 0):
            raise TraceFormatError("times must be strictly increasing")
        if np.any(p <= 0):
            raise TraceFormatError("prices must be strictly positive")
        if horizon <= t[-1]:
            raise TraceFormatError(f"horizon {horizon} must exceed last change time {t[-1]}")
        t.setflags(write=False)
        p.setflags(write=False)
        self.times = t
        self.prices = p
        self.horizon = float(horizon)
        self.market = market
        self.region = region
        # Optional precomputed segment-bounds array (``times + [horizon]``),
        # e.g. the memory-mapped one stored inside a compiled segment file;
        # the compiled plan adopts it instead of concatenating a fresh copy.
        self._bounds = bounds
        self._compiled: CompiledTrace | None = None

    # ---------------------------------------------------------- compiled plan
    @property
    def compiled(self) -> CompiledTrace:
        """The trace's compiled query plan, built once on first use."""
        comp = self._compiled
        if comp is None:
            comp = CompiledTrace(self.times, self.prices, self.horizon, bounds=self._bounds)
            self._compiled = comp
        return comp

    def __getstate__(self):
        # The compiled plan is derived state: rebuild lazily after unpickling
        # rather than shipping index tables between processes.
        return (self.times, self.prices, self.horizon, self.market, self.region)

    def __setstate__(self, state) -> None:
        times, prices, horizon, market, region = state
        times.setflags(write=False)
        prices.setflags(write=False)
        self.times = times
        self.prices = prices
        self.horizon = horizon
        self.market = market
        self.region = region
        self._bounds = None
        self._compiled = None

    # ------------------------------------------------------------- basic info
    @property
    def start(self) -> float:
        """Trace start time in seconds."""
        return float(self.times[0])

    @property
    def duration(self) -> float:
        """Length of the trace's validity window in seconds."""
        return self.horizon - self.start

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def __repr__(self) -> str:  # pragma: no cover
        tag = f"{self.region}/{self.market}" if self.region or self.market else "trace"
        return (
            f"<PriceTrace {tag} n={len(self)} "
            f"[{self.start:.0f},{self.horizon:.0f})s "
            f"mean=${self.mean_price():.4f}/hr>"
        )

    # ----------------------------------------------------------------- lookup
    def _index_at(self, t: np.ndarray) -> np.ndarray | int:
        # ndarray method form: skips np.searchsorted's dispatch wrapper.
        idx = self.times.searchsorted(t, side="right")
        if isinstance(idx, np.ndarray):
            idx -= 1
            # Clamp in place with raw ufuncs: np.clip's dispatch (dtype
            # introspection per call) measurably taxes the batch hot path.
            np.maximum(idx, 0, out=idx)
            np.minimum(idx, len(self.times) - 1, out=idx)
            return idx
        # Scalar / 0-d query: searchsorted returned a plain integer.
        return min(max(int(idx) - 1, 0), len(self.times) - 1)

    def price_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Price in force at time(s) ``t``.

        Times before the trace start clamp to the first price; times at or
        beyond the horizon clamp to the last price (callers normally stay in
        range — the clamps make vector post-processing forgiving).
        """
        if type(t) is float or type(t) is int:
            return self.compiled.price_at(t)
        arr = np.asarray(t, dtype=np.float64)
        out = self.prices[self._index_at(arr)]
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out

    def next_change_after(self, t: float) -> float | None:
        """First change time strictly after ``t``, or ``None`` if none before horizon."""
        return self.compiled.next_change_after(t)

    # --------------------------------------------------------------- segments
    def segments(self, t0: float | None = None, t1: float | None = None) -> Iterator[
        tuple[float, float, float]
    ]:
        """Yield ``(seg_start, seg_end, price)`` covering ``[t0, t1)``.

        Defaults to the full trace window. Segments are clipped to the
        requested window.
        """
        lo = self.start if t0 is None else max(t0, self.start)
        hi = self.horizon if t1 is None else min(t1, self.horizon)
        if hi <= lo:
            return
        comp = self.compiled
        first, last = comp.window_bounds(lo, hi)
        starts = np.maximum(comp.bounds[first:last], lo)
        ends = np.minimum(comp.bounds[first + 1 : last + 1], hi)
        keep = ends > starts
        yield from zip(
            starts[keep].tolist(),
            ends[keep].tolist(),
            self.prices[first:last][keep].tolist(),
        )

    # -------------------------------------------------------------- aggregates
    def mean_price(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-weighted mean price over ``[t0, t1)`` (default: whole trace)."""
        return self.compiled.mean_price(t0, t1)

    def price_std(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-weighted standard deviation of the price over the window."""
        return self.compiled.price_std(t0, t1)

    def time_above(self, threshold: float, t0: float | None = None, t1: float | None = None) -> float:
        """Total seconds in the window during which price > ``threshold``."""
        return self.compiled.time_above(threshold, t0, t1)

    def max_price(self, t0: float | None = None, t1: float | None = None) -> float:
        """Maximum price attained in the window."""
        return self.compiled.max_price(t0, t1)

    def min_price(self, t0: float | None = None, t1: float | None = None) -> float:
        """Minimum price attained in the window."""
        return self.compiled.min_price(t0, t1)

    # -------------------------------------------------------------- crossings
    def crossings_above(self, threshold: float) -> np.ndarray:
        """Change times at which price transitions from <= threshold to > it.

        If the trace *starts* above the threshold, the start time is included
        as a crossing. The returned array is memoized per threshold and
        read-only — copy before mutating.
        """
        return self.compiled.crossings_above(threshold)

    def crossings_below(self, threshold: float) -> np.ndarray:
        """Change times at which price transitions from > threshold to <= it.

        Memoized per threshold; the returned array is read-only.
        """
        return self.compiled.crossings_below(threshold)

    def first_time_above(self, threshold: float, from_t: float) -> float | None:
        """Earliest time >= ``from_t`` with price > ``threshold``, or ``None``.

        If the price is already above the threshold at ``from_t`` the answer
        is ``from_t`` itself.
        """
        return self.compiled.first_time_above(threshold, from_t)

    def first_time_at_or_below(self, threshold: float, from_t: float) -> float | None:
        """Earliest time >= ``from_t`` with price <= ``threshold``, or ``None``."""
        return self.compiled.first_time_at_or_below(threshold, from_t)

    # -------------------------------------------------------------- transforms
    def resample(self, grid: np.ndarray) -> np.ndarray:
        """Sample the step function on an arbitrary time grid (vectorised)."""
        return np.asarray(self.price_at(np.asarray(grid, dtype=np.float64)))

    def regular_grid(self, step_seconds: float) -> tuple[np.ndarray, np.ndarray]:
        """Resample on a regular grid of ``step_seconds``; returns (grid, prices)."""
        if step_seconds <= 0:
            raise TraceFormatError("step must be positive")
        grid = np.arange(self.start, self.horizon, step_seconds)
        return grid, self.resample(grid)

    def slice(self, t0: float, t1: float) -> "PriceTrace":
        """A sub-trace covering ``[t0, t1)`` with the same prices."""
        if not (self.start <= t0 < t1 <= self.horizon):
            raise TraceFormatError(
                f"slice [{t0}, {t1}) outside trace [{self.start}, {self.horizon})"
            )
        comp = self.compiled
        first, last = comp.window_bounds(t0, t1)
        starts = np.maximum(comp.bounds[first:last], t0)
        ends = np.minimum(comp.bounds[first + 1 : last + 1], t1)
        keep = ends > starts
        return PriceTrace(
            starts[keep], self.prices[first:last][keep], t1,
            market=self.market, region=self.region,
        )

    def shift(self, dt: float) -> "PriceTrace":
        """The same trace translated by ``dt`` seconds."""
        return PriceTrace(
            self.times + dt, self.prices, self.horizon + dt, market=self.market, region=self.region
        )

    def scale_prices(self, factor: float) -> "PriceTrace":
        """The same trace with every price multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise TraceFormatError("scale factor must be positive")
        return PriceTrace(
            self.times, self.prices * factor, self.horizon, market=self.market, region=self.region
        )

    @staticmethod
    def constant(price: float, start: float, horizon: float, **kw: str) -> "PriceTrace":
        """A trace with a single constant price (handy in tests and baselines)."""
        return PriceTrace(np.array([start]), np.array([price]), horizon, **kw)
