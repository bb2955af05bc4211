"""The trace catalog: one generated trace per (region, size) market.

A :class:`TraceCatalog` is the simulation's price oracle. Experiments build
one per seed ("we sampled the empirically observed distributions and used a
different sample for each simulation run" — Section 4.1) and hand it to the
scheduler via :class:`repro.cloud.provider.CloudProvider`.

A :class:`MarketStore` generates each market of one (seed, horizon) sample
at most once and serves any region/size subset as a view over the same
trace objects. Every market draws from named RNG streams and every shared
shock is memoised in the generator by stream name, so a market's trace does
not depend on which other markets were generated before it: a subset view
is bit-identical to a fresh :func:`build_catalog` of that subset.
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

__all__ = ["MarketKey", "MarketStore", "TraceCatalog", "build_catalog"]


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
        #: The catalog never changes after construction, so the sorted
        #: keys and the per-region subsets are computed once.
        self._sorted = tuple(sorted(self._traces))
        self._by_region: dict[str, tuple[MarketKey, ...]] = {}
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
        """All market keys, sorted for determinism (a fresh list)."""
        return list(self._sorted)

    def markets_in_region(self, region: str) -> list[MarketKey]:
        """Markets belonging to one availability zone (a fresh list)."""
        keys = self._by_region.get(region)
        if keys is None:
            keys = self._by_region[region] = tuple(
                k for k in self._sorted if k.region == region
            )
        return list(keys)

    def regions(self) -> list[str]:
        """Distinct regions present, sorted."""
        return sorted({k.region for k in self._traces})

    def __contains__(self, key: MarketKey) -> bool:
        return key in self._traces

    def __iter__(self) -> Iterator[MarketKey]:
        return iter(self._sorted)

    def __len__(self) -> int:
        return len(self._traces)

    def restricted(self, keys: Iterable[MarketKey]) -> "TraceCatalog":
        """A sub-catalog containing only ``keys`` (e.g. one region pair)."""
        keys = list(keys)
        return TraceCatalog(
            {k: self.trace(k) for k in keys},
            {k: self.on_demand_price(k) for k in keys},
            self.horizon,
            source=self.source,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TraceCatalog {len(self)} markets horizon={self.horizon:.0f}s>"


class MarketStore:
    """Every market of one (seed, horizon) price sample, generated once.

    Holds one :class:`TraceGenerator` and a memo of its traces.
    :meth:`catalog` generates only the markets it has not generated yet and
    returns a :class:`TraceCatalog` over the memoised traces; repeated
    requests for the same subset return the same catalog object.

    ``calibrations`` overrides markets keyed by ``(region, size)``, as in
    :func:`build_catalog`; it is fixed for the life of the store.
    """

    def __init__(
        self,
        seed: int,
        horizon: float,
        calibrations: Mapping[tuple[str, str], MarketCalibration] | None = None,
    ) -> None:
        self.seed = int(seed)
        self.horizon = float(horizon)
        self._calibrations = dict(calibrations) if calibrations is not None else {}
        self._generator = TraceGenerator(RngStreams(seed), horizon)
        self._traces: dict[MarketKey, PriceTrace] = {}
        self._on_demand: dict[MarketKey, float] = {}
        self._views: dict[tuple[tuple[str, ...], tuple[str, ...]], TraceCatalog] = {}

    def has(self, regions: Iterable[str], sizes: Iterable[str]) -> bool:
        """Whether every market of ``regions`` × ``sizes`` is generated."""
        regions, sizes = tuple(regions), tuple(sizes)
        return (regions, sizes) in self._views or all(
            MarketKey(r, s) in self._traces for r in regions for s in sizes
        )

    def catalog(
        self, regions: Iterable[str] = REGIONS, sizes: Iterable[str] = SIZES
    ) -> TraceCatalog:
        """The catalog of ``regions`` × ``sizes``, generating missing markets."""
        view_key = (tuple(regions), tuple(sizes))
        view = self._views.get(view_key)
        if view is not None:
            return view
        keys = [MarketKey(r, s) for r in view_key[0] for s in view_key[1]]
        for key in keys:
            if key not in self._traces:
                cal = self._calibrations.get((key.region, key.size))
                if cal is None:
                    cal = calibration_for(key.region, key.size)
                self._traces[key] = self._generator.generate(cal)
                self._on_demand[key] = on_demand_price(key.region, key.size)
        view = TraceCatalog(
            {k: self._traces[k] for k in keys},
            {k: self._on_demand[k] for k in keys},
            self.horizon,
        )
        self._views[view_key] = view
        return view

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MarketStore seed={self.seed} horizon={self.horizon:.0f}s "
            f"markets={len(self._traces)}>"
        )


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
    return MarketStore(seed, horizon, calibrations).catalog(regions, sizes)
