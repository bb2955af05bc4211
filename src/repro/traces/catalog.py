"""The trace catalog: one generated trace per (region, size) market.

A :class:`TraceCatalog` is the simulation's price oracle. Experiments build
one per seed ("we sampled the empirically observed distributions and used a
different sample for each simulation run" — Section 4.1) and hand it to the
scheduler via :class:`repro.cloud.provider.CloudProvider`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import CalibrationError
from repro.simulator.rng import RngStreams
from repro.traces.calibration import (
    REGIONS,
    SIZES,
    MarketCalibration,
    calibration_for,
    on_demand_price,
)
from repro.traces.generator import TraceGenerator
from repro.traces.trace import PriceTrace

__all__ = ["MarketKey", "TraceCatalog", "build_catalog"]


@dataclass(frozen=True, order=True)
class MarketKey:
    """Identifies one spot market: an availability zone plus instance size."""

    region: str
    size: str

    def __post_init__(self) -> None:
        # Keys index every hot-path memo (markets, leads, spend, strategy
        # caches); precompute the hash once instead of per lookup.
        object.__setattr__(self, "_hash", hash((self.region, self.size)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.region}/{self.size}"


class TraceCatalog:
    """Immutable mapping from :class:`MarketKey` to :class:`PriceTrace`.

    Also carries each market's on-demand price so downstream code never
    needs the calibration tables.
    """

    def __init__(
        self,
        traces: Mapping[MarketKey, PriceTrace],
        on_demand: Mapping[MarketKey, float],
        horizon: float,
        source: str | None = None,
    ) -> None:
        if not traces:
            raise CalibrationError("catalog must contain at least one market")
        missing = set(traces) - set(on_demand)
        if missing:
            raise CalibrationError(f"missing on-demand prices for {sorted(map(str, missing))}")
        for key, trace in traces.items():
            if trace.horizon != horizon:
                raise CalibrationError(
                    f"trace {key} horizon {trace.horizon} != catalog horizon {horizon}"
                )
        self._traces = dict(traces)
        self._on_demand = {k: float(v) for k, v in on_demand.items()}
        self.horizon = float(horizon)
        #: When the catalog was loaded from an ingested segment directory
        #: (:func:`repro.traces.ingest.load_segment_catalog`), the directory
        #: path whose segment files back this catalog's traces.
        self.source = source

    # ----------------------------------------------------------------- access
    def trace(self, key: MarketKey) -> PriceTrace:
        """The price trace of one market."""
        try:
            return self._traces[key]
        except KeyError as exc:
            raise CalibrationError(f"market {key} not in catalog") from exc

    def on_demand_price(self, key: MarketKey) -> float:
        """On-demand hourly price of the market's instance size in its region."""
        try:
            return self._on_demand[key]
        except KeyError as exc:
            raise CalibrationError(f"market {key} not in catalog") from exc

    def markets(self) -> list[MarketKey]:
        """All market keys, sorted for determinism."""
        return sorted(self._traces)

    def markets_in_region(self, region: str) -> list[MarketKey]:
        """Markets belonging to one availability zone."""
        return [k for k in self.markets() if k.region == region]

    def regions(self) -> list[str]:
        """Distinct regions present, sorted."""
        return sorted({k.region for k in self._traces})

    def __contains__(self, key: MarketKey) -> bool:
        return key in self._traces

    def __iter__(self) -> Iterator[MarketKey]:
        return iter(self.markets())

    def __len__(self) -> int:
        return len(self._traces)

    def restricted(self, keys: Iterable[MarketKey]) -> "TraceCatalog":
        """A sub-catalog containing only ``keys`` (e.g. one region pair)."""
        keys = list(keys)
        return TraceCatalog(
            {k: self.trace(k) for k in keys},
            {k: self.on_demand_price(k) for k in keys},
            self.horizon,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TraceCatalog {len(self)} markets horizon={self.horizon:.0f}s>"


def build_catalog(
    seed: int,
    horizon: float,
    regions: Iterable[str] = REGIONS,
    sizes: Iterable[str] = SIZES,
    calibrations: Mapping[tuple[str, str], MarketCalibration] | None = None,
) -> TraceCatalog:
    """Generate the full trace catalog for one simulation run.

    Parameters
    ----------
    seed:
        Root seed; every market's trace and the shared shock streams derive
        from it deterministically.
    horizon:
        Trace length in seconds.
    regions, sizes:
        Subsets of the paper's four AZs and four sizes.
    calibrations:
        Optional overrides, keyed by ``(region, size)``; missing keys fall
        back to :func:`repro.traces.calibration.calibration_for`.
    """
    streams = RngStreams(seed)
    gen = TraceGenerator(streams, horizon)
    traces: dict[MarketKey, PriceTrace] = {}
    od: dict[MarketKey, float] = {}
    for region in regions:
        for size in sizes:
            cal = None
            if calibrations is not None:
                cal = calibrations.get((region, size))
            if cal is None:
                cal = calibration_for(region, size)
            key = MarketKey(region=region, size=size)
            traces[key] = gen.generate(cal)
            od[key] = on_demand_price(region, size)
    return TraceCatalog(traces, od, horizon)
