"""Per-process market store cache: generate each market trace at most once.

The paper's methodology compares policies on *the same* price sample, and a
batch of N policies over S seeds needs only S samples, not N×S. Every
catalog a process asks for — a run's (:class:`CatalogKey`) or an
experiment's direct :func:`shared_catalog` lookup — is served from one
:class:`~repro.traces.catalog.MarketStore` per (seed, horizon,
calibration overrides): the store generates each market once, and any
region/size subset is a view over the same trace objects, bit-identical to
a fresh :func:`~repro.traces.catalog.build_catalog`. The cache is a small
LRU of those stores; both the serial executor and every pool worker hold
one per process (:func:`shared_catalog_cache`). A replayed archive
(``RunSpec.traces``) is an :class:`ArchiveStore`, keyed by its directory.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.traces.calibration import (
    DEFAULT_CALIBRATIONS,
    REGIONS,
    SIZES,
    MarketCalibration,
)
from repro.traces.catalog import MarketKey, MarketStore, TraceCatalog
from repro.traces.ingest import load_segment_catalog

__all__ = ["CatalogKey", "TraceCatalogCache", "shared_catalog", "shared_catalog_cache"]

#: Default number of market stores kept per process. A full 16-market,
#: 30-day store measures about 0.75 MB; 32 stores comfortably cover one
#: experiment's seed × calibration working set.
DEFAULT_MAXSIZE = 32


@dataclass(frozen=True)
class CatalogKey:
    """Everything that determines a generated catalog's contents."""

    seed: int
    horizon_s: float
    regions: Tuple[str, ...]
    sizes: Tuple[str, ...]
    calibration_token: Optional[tuple] = None  #: sorted calibration overrides
    #: A replay's segment directory. The seed stays in the key: it drives
    #: every other stream, and the dedupe key leaves seeds to this key.
    source: Optional[str] = None

    @classmethod
    def of(
        cls,
        seed: int,
        horizon: float,
        regions: Iterable[str] = REGIONS,
        sizes: Iterable[str] = SIZES,
        calibrations: Optional[Mapping[Tuple[str, str], MarketCalibration]] = None,
        *,
        source: Optional[str] = None,
    ) -> Optional["CatalogKey"]:
        """The key of :func:`build_catalog`'s arguments (or of a view of the
        archive in ``source``), or ``None`` when they are unhashable."""
        token: Optional[tuple] = None
        if calibrations is not None:
            token = tuple(sorted(calibrations.items()))
        key = cls(int(seed), float(horizon), tuple(regions), tuple(sizes), token, source)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    @property
    def store_key(self) -> object:
        """``(seed, horizon_s, overrides)`` of the market store this key's
        catalog is a view of (a replay's: its directory). An override equal
        to its market's default calibration is left out."""
        if self.source is not None:
            return self.source
        token = self.calibration_token
        if token is not None:
            token = tuple(
                (market, cal) for market, cal in token
                if cal != DEFAULT_CALIBRATIONS.get(market)
            ) or None
        return (self.seed, self.horizon_s, token)


class ArchiveStore:
    """The :class:`~repro.traces.catalog.MarketStore` of an ingested segment
    directory: mapped on first use; every view shares the mapped traces."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._archive: Optional[TraceCatalog] = None

    def has(self, regions: Iterable[str], sizes: Iterable[str]) -> bool:
        return self._archive is not None

    def catalog(self, regions: Iterable[str], sizes: Iterable[str]) -> TraceCatalog:
        """The view of ``regions`` x ``sizes``; each must be archived."""
        if self._archive is None:
            self._archive = load_segment_catalog(self.directory)
        return self._archive.restricted(MarketKey(r, s) for r in regions for s in sizes)


class TraceCatalogCache:
    """An LRU of market stores with hit/miss/build counters.

    A lookup is a *hit* when every market of the key is already generated
    and a *build* when at least one market had to be generated.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize <= 0:
            raise ConfigurationError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._stores: "OrderedDict[object, MarketStore | ArchiveStore]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_wall_s = 0.0

    def get_or_build(self, key: CatalogKey) -> Tuple[TraceCatalog, bool, float]:
        """The catalog for ``key``: ``(catalog, was_cached, build_seconds)``."""
        store_key = key.store_key
        store = self._stores.get(store_key)
        if store is None:
            if key.source is not None:
                store = ArchiveStore(key.source)
            else:
                store = MarketStore(key.seed, key.horizon_s, dict(store_key[2] or ()))
            self._stores[store_key] = store
            while len(self._stores) > self.maxsize:
                self._stores.popitem(last=False)
        else:
            self._stores.move_to_end(store_key)
        if store.has(key.regions, key.sizes):
            self.hits += 1
            return store.catalog(key.regions, key.sizes), True, 0.0
        self.misses += 1
        t0 = time.perf_counter()
        catalog = store.catalog(key.regions, key.sizes)
        wall = time.perf_counter() - t0
        self.builds += 1
        self.build_wall_s += wall
        return catalog, False, wall

    def peek(self, key: CatalogKey) -> Optional[TraceCatalog]:
        """The catalog when every market of ``key`` is already generated,
        without generating or touching LRU order."""
        store = self._stores.get(key.store_key)
        if store is None or not store.has(key.regions, key.sizes):
            return None
        return store.catalog(key.regions, key.sizes)

    def clear(self) -> None:
        """Drop entries and reset counters."""
        self._stores.clear()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_wall_s = 0.0

    def stats(self) -> dict:
        return {
            "size": len(self._stores),
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "build_wall_s": self.build_wall_s,
        }

    def __len__(self) -> int:
        return len(self._stores)

    def __contains__(self, key: CatalogKey) -> bool:
        return self.peek(key) is not None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TraceCatalogCache size={len(self)}/{self.maxsize} "
            f"hits={self.hits} builds={self.builds}>"
        )


_SHARED: Optional[TraceCatalogCache] = None


def shared_catalog_cache() -> TraceCatalogCache:
    """This process's catalog cache (one per process, including workers)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = TraceCatalogCache()
    return _SHARED


def shared_catalog(
    seed: int,
    horizon: float,
    regions: Iterable[str] = REGIONS,
    sizes: Iterable[str] = SIZES,
) -> TraceCatalog:
    """:func:`~repro.traces.catalog.build_catalog` (default calibrations) served from this
    process's market stores.

    Returns a bit-identical catalog, but generates only the markets no
    earlier lookup in this process generated.
    """
    key = CatalogKey.of(seed, horizon, regions, sizes)
    return shared_catalog_cache().get_or_build(key)[0]
