"""Synthetic spot-price generation.

The price process is a **regime-switching overlay**:

* a *calm* mean-reverting lognormal process re-priced at Poisson epochs,
  clipped strictly below the on-demand price (spot is "usually cheap");
* three classes of Poisson *excursions* layered on top — blips (brief, just
  above on-demand), spikes (longer, up to ~4x on-demand) and sharp spikes
  (instantaneous jumps past the 4x bid cap). The final price at any instant
  is the maximum of the calm level and every active excursion envelope.

Cross-market correlation (Figs 8b/9b of the paper) comes from letting a
fraction of each market's excursions arrive from a **shared regional** or
**global** Poisson stream: two markets adopting the same shared arrival
spike at the same time, which is exactly the co-movement the multi-market
bidding algorithm exploits ("when one spot market has a price rise the other
markets in the same region may not experience a similar rise").

All sampling is vectorised NumPy on named RNG streams, so generating the
full 16-market catalog for a 30-day horizon takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError
from repro.simulator.rng import RngStreams
from repro.traces.calibration import MarketCalibration, SpikeModel
from repro.traces.trace import PriceTrace
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "Excursion",
    "TraceGenerator",
    "generate_trace",
    "sample_excursions",
    "CALM_CEILING_FRAC",
]

#: The calm leg is clipped strictly below on-demand at this fraction — the
#: refit pipeline uses the same constant to separate calm re-pricings from
#: excursion activity when estimating parameters from real archives.
CALM_CEILING_FRAC = 0.92

#: Relative heights of the ramp steps of a gradual excursion.
_RAMP_FRACTIONS = (0.45, 0.75, 1.0)
#: A gradual excursion reaches its peak within this many seconds (or a
#: quarter of its duration, whichever is smaller).
_RAMP_SPAN_S = 900.0


@dataclass(frozen=True)
class Excursion:
    """One price excursion: piecewise-constant envelope over [start, end)."""

    start: float
    end: float
    step_times: np.ndarray  #: absolute times of internal steps (start included)
    step_prices: np.ndarray  #: price in force from each step time

    def envelope_at(self, t: np.ndarray) -> np.ndarray:
        """Envelope price at times ``t``; -inf outside [start, end)."""
        out = np.full(t.shape, -np.inf)
        mask = (t >= self.start) & (t < self.end)
        if np.any(mask):
            idx = np.clip(
                np.searchsorted(self.step_times, t[mask], side="right") - 1,
                0,
                len(self.step_times) - 1,
            )
            out[mask] = self.step_prices[idx]
        return out

    @property
    def peak(self) -> float:
        return float(self.step_prices.max())


def _lognormal_mean_sigma(rng: np.random.Generator, mean: float, sigma: float, n: int) -> np.ndarray:
    """Draw lognormal samples with the given *arithmetic* mean."""
    mu = np.log(mean) - 0.5 * sigma * sigma
    return rng.lognormal(mu, sigma, size=n)


def sample_excursions(
    rng: np.random.Generator,
    model: SpikeModel,
    starts: np.ndarray,
    on_demand: float,
    horizon: float,
    calm_level: float,
) -> list[Excursion]:
    """Materialise excursions at the given start times.

    Peaks and durations are drawn from ``rng`` (one draw per start, in start
    order, so a market's attribute stream is deterministic). Durations are
    clamped to the horizon.
    """
    n = len(starts)
    if n == 0:
        return []
    durations = _lognormal_mean_sigma(rng, model.duration_mean_s, model.duration_sigma, n)
    peaks = rng.uniform(model.peak_lo_frac, model.peak_hi_frac, size=n) * on_demand
    jitters = rng.uniform(0.97, 1.03, size=(n, 2))
    out: list[Excursion] = []
    for i in range(n):
        s = float(starts[i])
        e = min(float(s + max(durations[i], 30.0)), horizon)
        if e <= s:
            continue
        peak = float(peaks[i])
        if model.sharp:
            # Jump straight to the peak; a mid-life jitter keeps the trace
            # from looking unnaturally flat.
            mid = s + 0.5 * (e - s)
            times = np.array([s, mid])
            prices = np.array([peak, peak * jitters[i, 0]])
        else:
            ramp = min(_RAMP_SPAN_S, 0.25 * (e - s))
            base = min(calm_level, peak)
            times_l = [s + f * ramp for f in (0.0, 0.5, 1.0)]
            prices_l = [base + f * (peak - base) for f in _RAMP_FRACTIONS]
            hold_mid = times_l[-1] + 0.5 * (e - times_l[-1])
            times_l.append(hold_mid)
            prices_l.append(peak * jitters[i, 1])
            times = np.array(times_l)
            prices = np.array(prices_l)
        keep = times < e
        out.append(Excursion(start=s, end=e, step_times=times[keep], step_prices=prices[keep]))
    return out


def _poisson_starts(rng: np.random.Generator, rate_per_hour: float, horizon: float) -> np.ndarray:
    """Start times of a homogeneous Poisson process on [0, horizon)."""
    lam = rate_per_hour * horizon / SECONDS_PER_HOUR
    n = rng.poisson(lam)
    return np.sort(rng.uniform(0.0, horizon, size=n))


class TraceGenerator:
    """Generates :class:`PriceTrace` objects for calibrated markets.

    Parameters
    ----------
    streams:
        Named RNG registry; each market consumes streams under
        ``trace/<region>/<size>/...`` so markets are independent and stable
        under refactoring.
    horizon:
        Trace length in seconds (paper uses month-long traces).
    """

    def __init__(self, streams: RngStreams, horizon: float) -> None:
        if horizon <= SECONDS_PER_HOUR:
            raise CalibrationError("horizon must exceed one hour")
        self.streams = streams
        self.horizon = float(horizon)
        # Shared shock start-times are drawn lazily per region & class and
        # cached so every market in the region sees the same arrivals.
        self._regional_shocks: dict[tuple[str, str], np.ndarray] = {}
        self._global_shocks: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------ shared shocks
    #: Upper-bound arrival rates (per hour) of the shared streams, per class.
    #: Individual markets thin these down to their own adopted rate.
    _SHARED_RATE = {"blips": 0.0070, "spikes": 0.0060, "sharp_spikes": 0.0012}

    def _shared_starts(self, scope: str, cls: str) -> np.ndarray:
        """Arrivals of the shared stream for ``scope`` ('global' or a region)."""
        if scope == "global":
            cached = self._global_shocks.get(cls)
            if cached is None:
                rng = self.streams.get(f"shock/global/{cls}")
                cached = _poisson_starts(rng, self._SHARED_RATE[cls], self.horizon)
                self._global_shocks[cls] = cached
            return cached
        key = (scope, cls)
        cached = self._regional_shocks.get(key)
        if cached is None:
            rng = self.streams.get(f"shock/{scope}/{cls}")
            cached = _poisson_starts(rng, self._SHARED_RATE[cls], self.horizon)
            self._regional_shocks[key] = cached
        return cached

    # ------------------------------------------------------------- turbulence
    def _turbulence_intervals(self, cal: MarketCalibration) -> np.ndarray:
        """Turbulent episodes of one market as an (n, 2) array of [start, end).

        Episodes are shared by every excursion class of the market, so a
        turbulent stretch raises blip, spike and sharp-spike intensity
        together — the burstiness the multi-market scheduler sidesteps by
        leaving a hot market (Fig 8c).
        """
        key = (f"{cal.region}/{cal.size}", "turbulence")
        cached = self._regional_shocks.get(key)
        if cached is not None:
            return cached
        rng = self.streams.get(f"trace/{cal.region}/{cal.size}/turbulence")
        intervals: list[tuple[float, float]] = []
        turbulent = bool(rng.uniform() < cal.turbulent_fraction())
        t = 0.0
        while t < self.horizon:
            mean = cal.turbulent_mean_s if turbulent else cal.quiet_mean_s
            dur = float(rng.exponential(mean))
            if turbulent:
                intervals.append((t, min(t + dur, self.horizon)))
            t += dur
            turbulent = not turbulent
        out = np.array(intervals).reshape(-1, 2)
        self._regional_shocks[key] = out
        return out

    def _in_turbulence(self, cal: MarketCalibration, times: np.ndarray) -> np.ndarray:
        iv = self._turbulence_intervals(cal)
        mask = np.zeros(times.shape, dtype=bool)
        for start, end in iv:
            mask |= (times >= start) & (times < end)
        return mask

    def _adopted_starts(
        self, cal: MarketCalibration, cls: str, model: SpikeModel
    ) -> np.ndarray:
        """Start times for one excursion class of one market.

        Composition: own independent stream — a turbulence-modulated Poisson
        process at mean rate ``rate*(1 - r - g)`` — plus thinned adoptions
        from the regional stream (target rate ``rate*r``) and global stream
        (``rate*g``).
        """
        rng = self.streams.get(f"trace/{cal.region}/{cal.size}/{cls}")
        own_rate = model.rate_per_hour * (1 - cal.regional_shock_share - cal.global_shock_share)
        # Thinning construction of the modulated process: generate at the
        # turbulent (peak) rate, then keep quiet-period arrivals with
        # probability quiet_mult / turbulent_mult.
        candidates = _poisson_starts(rng, own_rate * cal.turbulent_mult, self.horizon)
        if candidates.size:
            hot = self._in_turbulence(cal, candidates)
            keep_p = np.where(hot, 1.0, cal.quiet_rate_mult() / cal.turbulent_mult)
            candidates = candidates[rng.uniform(size=candidates.size) < keep_p]
        parts = [candidates]
        for scope, share in (
            (cal.region, cal.regional_shock_share),
            ("global", cal.global_shock_share),
        ):
            shared = self._shared_starts(scope, cls)
            target = model.rate_per_hour * share
            cap = self._SHARED_RATE[cls]
            accept_p = min(1.0, target / cap) if cap > 0 else 0.0
            if shared.size and accept_p > 0:
                keep = rng.uniform(size=shared.size) < accept_p
                parts.append(shared[keep])
        return np.sort(np.concatenate(parts))

    # ---------------------------------------------------------------- calm leg
    #: Stationary std and AR(1) coefficient of the shared calm drifts. The
    #: regional drift induces the intra-region correlation of Fig 8b; the
    #: weaker global drift induces the (lower) cross-region correlation of
    #: Fig 9b. Both are slow-moving (phi close to 1) hourly processes.
    _REGIONAL_DRIFT_STD = 0.16
    _GLOBAL_DRIFT_STD = 0.10
    _DRIFT_PHI = 0.985

    def _shared_drift(self, scope: str, std: float) -> tuple[np.ndarray, np.ndarray]:
        """Hourly-grid AR(1) log-price drift shared by every market in scope."""
        key = (scope, "calm-drift")
        cached = self._regional_shocks.get(key)
        if cached is None:
            rng = self.streams.get(f"shock/{scope}/calm-drift")
            grid = np.arange(0.0, self.horizon + SECONDS_PER_HOUR, SECONDS_PER_HOUR)
            n = len(grid)
            phi = self._DRIFT_PHI
            innov = rng.normal(0.0, std * np.sqrt(1.0 - phi * phi), size=n)
            x = np.empty(n)
            x[0] = rng.normal(0.0, std)
            for i in range(1, n):
                x[i] = phi * x[i - 1] + innov[i]
            cached = np.vstack([grid, x])
            self._regional_shocks[key] = cached
        return cached[0], cached[1]

    def _drift_at(self, scope: str, std: float, times: np.ndarray) -> np.ndarray:
        grid, values = self._shared_drift(scope, std)
        idx = np.clip(np.searchsorted(grid, times, side="right") - 1, 0, len(grid) - 1)
        return values[idx]

    def _calm_process(self, cal: MarketCalibration) -> tuple[np.ndarray, np.ndarray]:
        """Times and prices of the calm (below on-demand) leg."""
        rng = self.streams.get(f"trace/{cal.region}/{cal.size}/calm")
        change_times = _poisson_starts(rng, cal.calm_change_rate_per_hour, self.horizon)
        times = np.concatenate([[0.0], change_times[change_times > 0.0]])
        n = len(times)
        # AR(1) in log space with stationary std = calm_sigma.
        phi = 1.0 - cal.calm_reversion
        innov_std = cal.calm_sigma * np.sqrt(max(1.0 - phi * phi, 1e-12))
        eps = rng.normal(0.0, innov_std, size=n)
        x = np.empty(n)
        x[0] = rng.normal(0.0, cal.calm_sigma)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        # Shared slow drifts induce the weak co-movement of Figs 8b/9b.
        x += self._drift_at(cal.region, self._REGIONAL_DRIFT_STD, times)
        x += self._drift_at("global", self._GLOBAL_DRIFT_STD, times)
        base = cal.calm_base_frac * cal.on_demand
        prices = base * np.exp(x)
        floor = cal.price_floor_frac * cal.on_demand
        ceiling = CALM_CEILING_FRAC * cal.on_demand  # calm leg never crosses on-demand
        return times, np.clip(prices, floor, ceiling)

    # --------------------------------------------------------------- assembly
    def generate(self, cal: MarketCalibration) -> PriceTrace:
        """Generate the full trace for one calibrated market."""
        calm_times, calm_prices = self._calm_process(cal)
        calm_level = cal.calm_base_frac * cal.on_demand

        excursions: list[Excursion] = []
        for cls in ("blips", "spikes", "sharp_spikes"):
            model: SpikeModel = getattr(cal, cls)
            starts = self._adopted_starts(cal, cls, model)
            rng = self.streams.get(f"trace/{cal.region}/{cal.size}/{cls}/attrs")
            excursions.extend(
                sample_excursions(rng, model, starts, cal.on_demand, self.horizon, calm_level)
            )

        # Breakpoints: calm changes plus every excursion step/end.
        pieces = [calm_times]
        for exc in excursions:
            pieces.append(exc.step_times)
            pieces.append(np.array([exc.end]))
        bp = np.unique(np.concatenate(pieces))
        bp = bp[(bp >= 0.0) & (bp < self.horizon)]
        if bp.size == 0 or bp[0] != 0.0:
            bp = np.concatenate([[0.0], bp])

        idx = np.clip(np.searchsorted(calm_times, bp, side="right") - 1, 0, len(calm_times) - 1)
        price = calm_prices[idx].copy()
        if excursions:
            # One sorted-events sweep over every excursion's constant pieces
            # instead of a per-excursion envelope_at pass: each step price
            # holds on [step_time, next_step_or_end), every such endpoint is
            # a breakpoint, so a piece covers exactly the bp slice between
            # the two searchsorted positions. Scatter-max of piece prices is
            # order-independent, hence bit-identical to the merge loop.
            lo_t = np.concatenate([exc.step_times for exc in excursions])
            hi_t = np.concatenate(
                [np.append(exc.step_times[1:], exc.end) for exc in excursions]
            )
            pr = np.concatenate([exc.step_prices for exc in excursions])
            lo_idx = np.searchsorted(bp, lo_t, side="left")
            lens = np.searchsorted(bp, hi_t, side="left") - lo_idx
            covered = lens > 0
            if np.any(covered):
                lo_idx, lens, pr = lo_idx[covered], lens[covered], pr[covered]
                flat = np.repeat(lo_idx, lens) + (
                    np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
                )
                np.maximum.at(price, flat, np.repeat(pr, lens))

        floor = cal.price_floor_frac * cal.on_demand
        np.clip(price, floor, None, out=price)

        # Compress runs of identical prices to keep the trace minimal.
        keep = np.concatenate([[True], np.diff(price) != 0.0])
        return PriceTrace(
            bp[keep],
            price[keep],
            self.horizon,
            market=cal.size,
            region=cal.region,
        )


def generate_trace(
    cal: MarketCalibration,
    horizon: float,
    seed: int = 0,
    streams: RngStreams | None = None,
) -> PriceTrace:
    """Convenience wrapper: generate a single market's trace.

    Without a shared :class:`RngStreams`, cross-market correlation streams
    are still consistent for the same seed, so traces produced one at a time
    match those from :func:`repro.traces.catalog.build_catalog`.
    """
    gen = TraceGenerator(streams or RngStreams(seed), horizon)
    return gen.generate(cal)
