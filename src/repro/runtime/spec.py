"""Pickleable run descriptions: what to simulate, without any live objects.

A :class:`StrategySpec` names a registered strategy kind plus its
constructor arguments, so a strategy can be rebuilt on the far side of a
process boundary and fingerprinted for a run ledger; it is the only
strategy a :class:`~repro.core.simulation.RunSpec` takes. A ``RunSpec``
bundles it with the bidding policy, mechanism, market subset, and seed,
and a :class:`BatchSpec` is an ordered set of runs executed together so
they can share trace catalogs. :func:`spec_fingerprint` and
:func:`batch_fingerprint` hash them for the run ledger.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.core import registry as _registry
from repro.core.simulation import RunSpec
from repro.core.strategies import HostingStrategy
from repro.errors import ConfigurationError
from repro.traces.catalog import MarketKey

__all__ = [
    "BatchSpec",
    "StrategySpec",
    "batch_fingerprint",
    "spec_fingerprint",
    "spec_fingerprints",
]


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable canonical form.

    The reduction is *structural*: dataclasses become ``[module-qualified
    class name, {field: value}]`` (an additive field at its default left
    out, see :func:`_field_plan`), enums their module-qualified class +
    value, and mappings sorted key/value lists. Two objects reduce to the
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
        # Module-qualified: two same-named enums from different modules
        # must not fingerprint identically.
        cls = type(obj)
        return ["enum", f"{cls.__module__}.{cls.__qualname__}", _canonical(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        fields = {}
        for name, _, default in _field_plan(cls):
            value = _canonical(getattr(obj, name))
            if default is None or _ENCODE(value) != default:
                fields[name] = value
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
    raise ConfigurationError(
        f"cannot fingerprint {type(obj).__name__!r} value {obj!r}"
    )


#: The canonical JSON encoding every fingerprint hashes.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@functools.lru_cache(maxsize=None)
def _field_plan(cls: type) -> tuple:
    """Each field of dataclass ``cls`` in key order: its name, its encoded
    ``"name":`` prefix and, for a field declared additive
    (``field(default=..., metadata={"additive": True})``), its default's
    encoding, else ``None``. An additive field is hashed only when its
    value encodes differently from its default, so adding one changes no
    earlier fingerprint. Encodings, not values: ``-0.0 == 0.0``, ``2 == 2.0``.
    """
    return tuple(
        (
            f.name,
            _ENCODE(f.name) + ":",
            _ENCODE(_canonical(f.default)) if f.metadata.get("additive") else None,
        )
        for f in sorted(dataclasses.fields(cls), key=lambda f: f.name)
    )


def spec_fingerprint(spec: RunSpec) -> str:
    """Stable content hash of one :class:`~repro.core.simulation.RunSpec`:
    SHA-256 of ``["RunSpec", {field: canonical value}]`` as canonical
    JSON, where an additive field at its default is left out (see
    :func:`_field_plan`)."""
    return spec_fingerprints((spec,))[0]


def spec_fingerprints(specs: Sequence[RunSpec]) -> Tuple[str, ...]:
    """Every spec's :func:`spec_fingerprint`, each field value reduced once.

    Each spec's blob is assembled from its fields' encoded canonical
    forms, and one memo caches those encodings across the specs by object
    *identity* — never by equality: ``ProactiveBidding(k=2)`` equals
    ``ProactiveBidding(k=2.0)`` but reduces differently, as do ``0.0`` and
    ``-0.0``. Each entry keeps a reference to its value, so no id is
    reused while the memo lives. The strategy, mechanism and params
    objects a batch's specs share therefore reduce once.
    """
    memo: Dict[int, tuple] = {}

    def encoded(value: Any) -> str:
        hit = memo.get(id(value))
        if hit is None:
            hit = memo[id(value)] = (value, _ENCODE(_canonical(value)))
        return hit[1]

    def fingerprint(spec: RunSpec) -> str:
        parts = []
        for name, prefix, default in _field_plan(type(spec)):
            value = encoded(getattr(spec, name))
            if default is None or value != default:
                parts.append(prefix + value)
        blob = '["RunSpec",{' + ",".join(parts) + "}]"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    return tuple(fingerprint(s) for s in specs)


def batch_fingerprint(fingerprints: Sequence[str]) -> str:
    """Content hash of a whole batch: package version + the ordered
    :func:`spec_fingerprints` of its runs.

    Every run's fingerprint already covers its catalog identity (seed,
    horizon, regions, sizes, calibration overrides), so two equal batch
    fingerprints imply identical catalogs, specs, and run order.
    """
    from repro._version import __version__

    blob = _ENCODE(["batch", __version__, list(fingerprints)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StrategySpec:
    """A strategy by name plus constructor arguments — hashable, pickleable.

    :meth:`build` (or calling the spec) constructs a fresh strategy. A
    custom strategy class runs once it is registered
    (:func:`~repro.core.registry.register_strategy_kind`): then
    ``StrategySpec.of(kind, ...)`` describes it like any built-in.
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

    def __repr__(self) -> str:  # pragma: no cover
        opts = ", ".join(f"{k}={v!r}" for k, v in self.options)
        parts = ", ".join(filter(None, [", ".join(map(repr, self.args)), opts]))
        return f"StrategySpec({self.kind}: {parts})"


@dataclass(frozen=True)
class BatchSpec:
    """An ordered set of runs executed together (shared catalog cache)."""

    runs: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ConfigurationError("batch needs at least one run")

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)
