"""Statistics over price traces: correlation, dispersion, threshold dwell.

These implement the analyses behind Figure 8(b) (intra-region correlation),
Figure 9(b) (cross-region correlation), Figure 10 (price standard deviation
per region/size) and the pure-spot availability argument of Figure 11(b)
(fraction of time the price sits above a bid).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.errors import TraceError
from repro.traces.trace import PriceTrace
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "trace_correlation",
    "correlation_matrix",
    "mean_pairwise_correlation",
    "price_std",
    "time_above_fraction",
    "TraceSummary",
    "summarize_trace",
    "ExcursionEpisode",
    "excursion_episodes",
    "calm_profile",
    "weighted_quantile",
    "calm_change_rate_per_hour",
]

#: Resampling grid used for correlation estimates (5 minutes, fine enough to
#: see every excursion while keeping month-long vectors small).
DEFAULT_GRID_STEP_S = 300.0


def _common_grid(traces: Sequence[PriceTrace], step: float) -> np.ndarray:
    start = max(t.start for t in traces)
    stop = min(t.horizon for t in traces)
    if stop - start < 2 * step:
        raise TraceError("traces do not overlap enough to correlate")
    return np.arange(start, stop, step)


def trace_correlation(a: PriceTrace, b: PriceTrace, step: float = DEFAULT_GRID_STEP_S) -> float:
    """Pearson correlation of two price series resampled on a common grid.

    Degenerate (constant) series yield correlation 0 by convention.
    """
    grid = _common_grid([a, b], step)
    xa = a.resample(grid)
    xb = b.resample(grid)
    sa, sb = xa.std(), xb.std()
    if sa <= 0 or sb <= 0:
        return 0.0
    return float(np.corrcoef(xa, xb)[0, 1])


def correlation_matrix(
    traces: Sequence[PriceTrace], step: float = DEFAULT_GRID_STEP_S
) -> np.ndarray:
    """Full pairwise Pearson correlation matrix (diagonal = 1)."""
    if len(traces) < 2:
        raise TraceError("need at least two traces")
    grid = _common_grid(traces, step)
    mat = np.vstack([t.resample(grid) for t in traces])
    stds = mat.std(axis=1)
    out = np.eye(len(traces))
    for i, j in combinations(range(len(traces)), 2):
        if stds[i] <= 0 or stds[j] <= 0:
            c = 0.0
        else:
            c = float(np.corrcoef(mat[i], mat[j])[0, 1])
        out[i, j] = out[j, i] = c
    return out


def mean_pairwise_correlation(
    traces: Sequence[PriceTrace], step: float = DEFAULT_GRID_STEP_S
) -> float:
    """Mean of the off-diagonal pairwise correlations (Figs 8b / 9b bars)."""
    mat = correlation_matrix(traces, step)
    n = mat.shape[0]
    iu = np.triu_indices(n, k=1)
    return float(mat[iu].mean())


def price_std(trace: PriceTrace) -> float:
    """Time-weighted standard deviation of the spot price (Fig 10 bars)."""
    return trace.price_std()


def time_above_fraction(trace: PriceTrace, threshold: float) -> float:
    """Fraction of the trace's window during which price > ``threshold``.

    With a bid of ``threshold``, a pure-spot tenant is revoked (and the
    service unavailable) for exactly this fraction of time, modulo
    re-acquisition latency — the Figure 11(b) argument.
    """
    return trace.time_above(threshold) / trace.duration


@dataclass(frozen=True)
class TraceSummary:
    """Descriptive statistics of one market trace."""

    market: str
    region: str
    duration_hours: float
    mean_price: float
    std_price: float
    min_price: float
    max_price: float
    n_changes: int
    changes_per_hour: float
    frac_above_od: float
    excursions_above_od: int

    def row(self) -> tuple:
        return (
            self.region,
            self.market,
            self.mean_price,
            self.std_price,
            self.max_price,
            self.frac_above_od,
        )


@dataclass(frozen=True)
class ExcursionEpisode:
    """One maximal interval during which price > threshold."""

    start: float
    end: float
    peak: float

    @property
    def duration_s(self) -> float:
        return self.end - self.start


def excursion_episodes(trace: PriceTrace, threshold: float) -> list[ExcursionEpisode]:
    """Maximal above-threshold episodes of a trace, in time order.

    The building block of the calibration refit: each episode's duration
    and peak feed the per-class (blip / spike / sharp-spike) parameter
    fits. An episode still open at the horizon is clipped there. Uses the
    compiled crossing tables, so the scan is O(episodes · log n).
    """
    out: list[ExcursionEpisode] = []
    for start in trace.crossings_above(threshold):
        s = float(start)
        end = trace.first_time_at_or_below(threshold, s)
        e = trace.horizon if end is None else float(end)
        out.append(ExcursionEpisode(start=s, end=e, peak=trace.max_price(s, e)))
    return out


def calm_profile(trace: PriceTrace, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """``(durations, prices)`` of the trace's at-or-below-threshold segments.

    The time-weighted view of the calm regime: every segment whose price
    sits at or below ``threshold``, with its clipped duration — the raw
    material for calm-level quantiles and dispersion estimates.
    """
    dur, prices = trace.compiled.window(trace.start, trace.horizon)
    mask = prices <= threshold
    return dur[mask], prices[mask]


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Quantile ``q`` of ``values`` under non-negative ``weights``."""
    if not 0.0 <= q <= 1.0:
        raise TraceError(f"quantile must be in [0, 1], got {q}")
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.size == 0 or weights.sum() <= 0:
        raise TraceError("weighted quantile of an empty/zero-weight sample")
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, q * cum[-1], side="left"))
    return float(v[min(idx, v.size - 1)])


def calm_change_rate_per_hour(trace: PriceTrace, threshold: float) -> float:
    """Calm re-pricings per hour of calm time.

    Counts change points whose new price is at or below ``threshold`` and
    normalises by the time actually spent there, estimating the calm
    leg's Poisson re-pricing intensity independently of excursion load.
    """
    calm_changes = int(np.count_nonzero(trace.prices <= threshold))
    calm_time_s = trace.duration - trace.time_above(threshold)
    if calm_time_s <= 0:
        return 0.0
    return calm_changes / (calm_time_s / SECONDS_PER_HOUR)


def summarize_trace(trace: PriceTrace, on_demand: float) -> TraceSummary:
    """Compute a :class:`TraceSummary` for one market against its on-demand price."""
    dur_h = trace.duration / SECONDS_PER_HOUR
    return TraceSummary(
        market=trace.market,
        region=trace.region,
        duration_hours=dur_h,
        mean_price=trace.mean_price(),
        std_price=trace.price_std(),
        min_price=trace.min_price(),
        max_price=trace.max_price(),
        n_changes=len(trace),
        changes_per_hour=len(trace) / dur_h,
        frac_above_od=time_above_fraction(trace, on_demand),
        excursions_above_od=int(len(trace.crossings_above(on_demand))),
    )
