"""Pickleable run descriptions: what to simulate, without any live objects.

A :class:`StrategySpec` names a registered strategy kind plus its
constructor arguments, so a strategy can be rebuilt on the far side of a
process boundary (closures cannot cross one). A :class:`RunSpec` bundles a
strategy spec with the bidding policy, mechanism, market subset, and seed —
everything :func:`repro.core.simulation.run_simulation` needs — and a
:class:`BatchSpec` is an ordered set of runs executed together so they can
share trace catalogs.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple, Union

from repro.core import registry as _registry
from repro.core.bidding import BiddingPolicy, ProactiveBidding
from repro.core.strategies import HostingStrategy
from repro.errors import ConfigurationError
from repro.traces.calibration import REGIONS, SIZES
from repro.traces.catalog import MarketKey
from repro.units import days
from repro.vm.mechanisms import Mechanism, MechanismParams, TYPICAL_PARAMS

__all__ = [
    "BatchSpec",
    "RunSpec",
    "StrategySpec",
    "batch_fingerprint",
    "register_strategy_kind",
    "spec_fingerprint",
    "strategy_kinds",
]


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable canonical form.

    The reduction is *structural*: dataclasses become ``[module-qualified
    class name, {field: value}]``, enums their module-qualified class +
    value, mappings sorted key/value lists, and callables their
    module-qualified name. Two objects reduce to the
    same form iff they would configure a simulation identically, which is
    what the run ledger's fingerprints need — no pickle bytes (unstable
    across interpreter versions), no ``id()``s, no dict ordering.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; JSON uses the same shortest form.
        return obj
    if isinstance(obj, enum.Enum):
        # Module-qualified, like callables below: two same-named enums from
        # different modules must not fingerprint identically.
        cls = type(obj)
        return ["enum", f"{cls.__module__}.{cls.__qualname__}", _canonical(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return [f"{cls.__module__}.{cls.__qualname__}", fields]
    if isinstance(obj, Mapping):
        items = [[_canonical(k), _canonical(v)] for k, v in obj.items()]
        return ["map", sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))]
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(_canonical(x), sort_keys=True) for x in obj)]
    # Numpy scalars and anything else numeric-like.
    for caster in (int, float):
        try:
            cast = caster(obj)
        except (TypeError, ValueError):
            continue
        if type(cast)(obj) == cast:
            return cast
    if callable(obj):
        # Legacy factory callables: identified by qualified name only (two
        # distinct closures with one name collide — RunSpec.is_portable()
        # already steers ledgered batches towards declarative specs).
        mod = getattr(obj, "__module__", "?")
        qual = getattr(obj, "__qualname__", repr(type(obj).__name__))
        return ["callable", mod, qual]
    raise ConfigurationError(
        f"cannot fingerprint {type(obj).__name__!r} value {obj!r}"
    )


def spec_fingerprint(spec: "RunSpec") -> str:
    """Stable content hash of one :class:`RunSpec`.

    Only fields that determine the simulation *result* participate;
    ``capture_trace`` is excluded (it changes telemetry payloads, never
    results), so a batch resumed inside an ``observe(trace=True)`` scope
    still matches its ledger.
    """
    fields = {
        f.name: _canonical(getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "capture_trace"
    }
    blob = json.dumps(["RunSpec", fields], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def batch_fingerprint(specs: Sequence["RunSpec"]) -> str:
    """Content hash of a whole batch: package version + ordered run hashes.

    Every run's fingerprint already covers its catalog identity (seed,
    horizon, regions, sizes, calibration overrides), so two equal batch
    fingerprints imply identical catalogs, specs, and run order.
    """
    from repro._version import __version__

    blob = json.dumps(
        ["batch", __version__, [spec_fingerprint(s) for s in specs]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

def register_strategy_kind(
    kind: str,
    builder: Callable[..., HostingStrategy],
    *,
    override: bool = False,
    **metadata: Any,
) -> None:
    """Register a strategy constructor under ``kind`` for spec building.

    Thin wrapper over :func:`repro.core.registry.register_strategy_kind`
    — the decorator registry is the single source of truth. Duplicate
    registration raises :class:`~repro.errors.ConfigurationError` unless
    ``override=True`` (it used to silently clobber the existing entry).
    """
    _registry.register_strategy_kind(kind, builder, override=override, **metadata)


def strategy_kinds() -> list[str]:
    """All registered strategy kinds, sorted (built-ins plus plugins)."""
    return _registry.strategy_kinds()


@dataclass(frozen=True)
class StrategySpec:
    """A strategy by name plus constructor arguments — hashable, pickleable.

    Calling the spec builds a fresh strategy, so a ``StrategySpec`` is a
    drop-in :data:`~repro.core.simulation.StrategyFactory` that also
    survives pickling (unlike the lambdas it replaces).
    """

    kind: str
    args: Tuple[Any, ...] = ()
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Raises ConfigurationError for unknown kinds (after giving the
        # registry a chance to load built-ins and entry-point plugins).
        _registry.strategy_info(self.kind)

    # -------------------------------------------------------------- builders
    @classmethod
    def of(cls, kind: str, *args: Any, **kwargs: Any) -> "StrategySpec":
        """Spec for any registered kind with arbitrary constructor args."""
        return cls(kind=kind, args=tuple(args), options=tuple(sorted(kwargs.items())))

    @classmethod
    def single(cls, key: MarketKey) -> "StrategySpec":
        return cls.of("single", key)

    @classmethod
    def pure_spot(cls, key: MarketKey) -> "StrategySpec":
        return cls.of("pure-spot", key)

    @classmethod
    def on_demand(cls, key: MarketKey) -> "StrategySpec":
        return cls.of("on-demand", key)

    @classmethod
    def multi_market(cls, region: str, service_units: int = 8) -> "StrategySpec":
        return cls.of("multi-market", region, service_units=service_units)

    @classmethod
    def multi_region(
        cls, regions: Sequence[str], service_units: int = 8
    ) -> "StrategySpec":
        return cls.of("multi-region", tuple(regions), service_units=service_units)

    @classmethod
    def stability(
        cls,
        regions: Sequence[str],
        service_units: int = 8,
        stability_weight: float = 1.0,
        **kwargs: Any,
    ) -> "StrategySpec":
        return cls.of(
            "stability",
            tuple(regions),
            service_units=service_units,
            stability_weight=stability_weight,
            **kwargs,
        )

    @classmethod
    def index_tracking(
        cls,
        regions: Sequence[str],
        service_units: int = 8,
        n_markets: int = 3,
        band: float = 0.15,
        **kwargs: Any,
    ) -> "StrategySpec":
        return cls.of(
            "index-tracking",
            tuple(regions),
            service_units=service_units,
            n_markets=n_markets,
            band=band,
            **kwargs,
        )

    @classmethod
    def no_fault_tolerance(cls, key: MarketKey, **kwargs: Any) -> "StrategySpec":
        return cls.of("no-ft", key, **kwargs)

    @classmethod
    def portfolio_bid(
        cls,
        regions: Sequence[str],
        service_units: int = 8,
        risk_cap: float = 0.05,
        **kwargs: Any,
    ) -> "StrategySpec":
        return cls.of(
            "portfolio-bid",
            tuple(regions),
            service_units=service_units,
            risk_cap=risk_cap,
            **kwargs,
        )

    # ------------------------------------------------------------- execution
    def build(self) -> HostingStrategy:
        """Construct a fresh strategy instance."""
        return _registry.strategy_builder(self.kind)(*self.args, **dict(self.options))

    def __call__(self) -> HostingStrategy:
        return self.build()

    def __repr__(self) -> str:  # pragma: no cover
        opts = ", ".join(f"{k}={v!r}" for k, v in self.options)
        parts = ", ".join(filter(None, [", ".join(map(repr, self.args)), opts]))
        return f"StrategySpec({self.kind}: {parts})"


#: Anything that builds a strategy: a declarative spec or a legacy factory
#: callable (the latter cannot cross process boundaries).
StrategyLike = Union[StrategySpec, Callable[[], HostingStrategy]]


@dataclass(frozen=True)
class RunSpec:
    """One scheduler run, declaratively: the pickleable sibling of
    :class:`~repro.core.simulation.SimulationConfig`.

    Unlike ``SimulationConfig`` it never holds a live catalog — the
    executor resolves one through the trace-catalog cache — and its
    ``strategy`` should be a :class:`StrategySpec` so the run can be
    shipped to a worker process (a plain factory callable is accepted but
    forces in-process execution).
    """

    strategy: StrategyLike
    bidding: BiddingPolicy = field(default_factory=ProactiveBidding)
    mechanism: Mechanism = Mechanism.CKPT_LR_LIVE
    params: MechanismParams = TYPICAL_PARAMS
    seed: int = 0
    horizon_s: float = days(30)
    regions: tuple = REGIONS
    sizes: tuple = SIZES
    calibrations: Optional[Mapping[tuple, Any]] = None
    startup_cv: float = 0.25
    service_disk_gib: float = 2.0
    label: str = ""
    #: Optional :class:`repro.testkit.faults.FaultPlan`. Frozen and
    #: pickleable, so faulted runs cross the process pool unchanged —
    #: a stormed batch is byte-identical at any ``jobs`` value. The fault
    #: overlay is applied per run *after* catalog-cache resolution, so the
    #: cache only ever holds clean base catalogs.
    faults: Optional[Any] = None
    #: Capture :mod:`repro.obs` trace events during execution and return
    #: them on the run's telemetry (set automatically by ``run_batch`` when
    #: an ``observe(trace=True)`` scope is active). Does not affect results.
    capture_trace: bool = False

    def with_(self, **kw) -> "RunSpec":
        """A copy with fields replaced."""
        return replace(self, **kw)

    @classmethod
    def from_config(cls, config, seed: Optional[int] = None) -> "RunSpec":
        """Lift a :class:`SimulationConfig` into a spec (drops any attached
        catalog — the runtime re-resolves catalogs through its cache)."""
        return cls(
            strategy=config.strategy,
            bidding=config.bidding,
            mechanism=config.mechanism,
            params=config.params,
            seed=config.seed if seed is None else seed,
            horizon_s=config.horizon_s,
            regions=tuple(config.regions),
            sizes=tuple(config.sizes),
            calibrations=config.calibrations,
            startup_cv=config.startup_cv,
            service_disk_gib=config.service_disk_gib,
            label=config.label,
            faults=getattr(config, "faults", None),
        )

    def to_config(self, catalog=None):
        """Materialise the :class:`SimulationConfig` for this run.

        The bidding policy is deep-copied so stateful policies (e.g.
        :class:`~repro.core.adaptive.AdaptiveBidding`'s per-market bid
        cache) never leak state between runs — each run sees exactly what
        it would have seen in its own process.
        """
        from repro.core.simulation import SimulationConfig

        return SimulationConfig(
            strategy=self.strategy,
            bidding=copy.deepcopy(self.bidding),
            mechanism=self.mechanism,
            params=self.params,
            seed=self.seed,
            horizon_s=self.horizon_s,
            regions=tuple(self.regions),
            sizes=tuple(self.sizes),
            catalog=catalog,
            calibrations=self.calibrations,
            startup_cv=self.startup_cv,
            service_disk_gib=self.service_disk_gib,
            label=self.label,
            faults=self.faults,
        )

    def catalog_key(self):
        """The trace-catalog cache key for this run, or ``None`` when the
        run is uncacheable (unhashable calibration overrides)."""
        from repro.runtime.cache import CatalogKey

        return CatalogKey.of(
            self.seed, self.horizon_s, self.regions, self.sizes, self.calibrations
        )

    def is_portable(self) -> bool:
        """Can this spec cross a process boundary?"""
        if not isinstance(self.strategy, StrategySpec):
            return False
        try:
            pickle.dumps(self)
        except Exception:
            return False
        return True

    def fingerprint(self) -> str:
        """Stable content hash (see :func:`spec_fingerprint`)."""
        return spec_fingerprint(self)


@dataclass(frozen=True)
class BatchSpec:
    """An ordered set of runs executed together (shared catalog cache)."""

    runs: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ConfigurationError("batch needs at least one run")

    @classmethod
    def product(cls, base: RunSpec, seeds: Sequence[int]) -> "BatchSpec":
        """One run per seed, mirroring ``run_many``'s fan-out."""
        if not len(seeds):
            raise ConfigurationError("need at least one seed")
        return cls(runs=tuple(base.with_(seed=s) for s in seeds))

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def fingerprint(self) -> str:
        """Stable content hash (see :func:`batch_fingerprint`)."""
        return batch_fingerprint(self.runs)
