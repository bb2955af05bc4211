"""The hosting-strategy plugin registry.

``core/strategies.py`` used to be a closed set wired by hand into the
CLIs, :class:`~repro.runtime.spec.StrategySpec`, and the fleet
synthesizer. This module opens it up: every strategy family registers
itself once with :func:`register_strategy` and every consumer —
``repro-simulate --strategy``, spec reconstruction, ``synthesize_fleet``
cohort drawing, the conformance suite, the docs checker — enumerates the
one registry instead of keeping its own list.

Registering a built-in::

    @register_strategy(
        "single",
        display_name="Single market",
        citation="Sharma et al., HPDC 2015 (Section 4)",
        arg_schema=(ArgSpec("key", "market"),),
        example_args=(MarketKey("us-east-1a", "small"),),
    )
    class SingleMarketStrategy(HostingStrategy):
        ...

Out-of-tree packages register without touching this repository by
exposing an entry point in the ``repro.strategies`` group; the target is
imported (a module whose import runs ``@register_strategy`` decorators)
or called (a zero-argument registration hook) on first registry
enumeration::

    [project.entry-points."repro.strategies"]
    my-policy = "my_pkg.policies"

Duplicate registration of a kind raises
:class:`~repro.errors.ConfigurationError` unless ``override=True`` is
passed (re-registering the *identical* builder is tolerated so module
re-imports stay harmless).
"""

from __future__ import annotations

import importlib
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "ENTRY_POINT_GROUP",
    "ArgSpec",
    "StrategyInfo",
    "register_strategy",
    "register_strategy_kind",
    "unregister_strategy",
    "strategy_kinds",
    "strategy_info",
    "strategy_infos",
    "strategy_builder",
    "info_for_builder",
    "example_spec",
    "synthesis_cohort",
    "discover_plugins",
]

#: Entry-point group out-of-tree packages register strategies under.
ENTRY_POINT_GROUP = "repro.strategies"

#: ``ArgSpec.kind`` vocabulary the generic CLI builder understands.
ARG_KINDS = ("market", "region", "regions", "int", "float")


@dataclass(frozen=True)
class ArgSpec:
    """One constructor argument in a strategy's spec-arg schema.

    ``kind`` tells generic consumers (the ``repro-simulate`` spec
    builder, the docs table) how to materialise the argument:

    * ``"market"`` — a :class:`~repro.traces.catalog.MarketKey` (CLI:
      first ``--region`` plus ``--size``);
    * ``"region"`` — one availability zone (CLI: first ``--region``);
    * ``"regions"`` — a tuple of zones (CLI: every ``--region``);
    * ``"int"`` / ``"float"`` — a plain scalar. ``cli`` names the
      ``argparse`` attribute it is read from (``None`` keeps the
      default).
    """

    name: str
    kind: str
    required: bool = True
    default: Any = None
    cli: Optional[str] = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ARG_KINDS:
            raise ConfigurationError(
                f"arg {self.name!r}: unknown schema kind {self.kind!r}; "
                f"known: {ARG_KINDS}"
            )


@dataclass(frozen=True)
class StrategyInfo:
    """Everything the registry knows about one strategy family."""

    #: Registry key; mirrors ``repro-simulate --strategy`` choices.
    kind: str
    #: Constructor — usually the strategy class itself.
    builder: Callable[..., Any]
    #: Human name for listings and the docs table.
    display_name: str
    #: Paper / related-work citation the family implements.
    citation: str
    #: Constructor-argument schema for generic spec building.
    arg_schema: Tuple[ArgSpec, ...] = ()
    #: Representative constructor args on the standard 2-region/2-size
    #: test grid — the conformance suite and ``example_spec`` build from
    #: these.
    example_args: Tuple[Any, ...] = ()
    example_options: Tuple[Tuple[str, Any], ...] = ()
    #: Relative probability mass :func:`~repro.fleet.spec.synthesize_fleet`
    #: gives this family when drawing tenant cohorts (0 = never drawn).
    synthesis_weight: float = 0.0
    #: ``(rng, markets, regions) -> StrategySpec`` cohort draw, required
    #: when ``synthesis_weight > 0``. Draws must happen in a fixed order.
    synthesize: Optional[Callable[..., Any]] = None
    #: One-line story for ``--list-strategies``.
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("strategy kind must be non-empty")
        if not callable(self.builder):
            raise ConfigurationError(f"{self.kind}: builder must be callable")
        if self.synthesis_weight < 0:
            raise ConfigurationError(f"{self.kind}: synthesis weight must be >= 0")
        if self.synthesis_weight > 0 and self.synthesize is None:
            raise ConfigurationError(
                f"{self.kind}: a synthesis weight needs a synthesize callable"
            )


_REGISTRY: Dict[str, StrategyInfo] = {}

#: Modules whose import registers the built-in families.
_BUILTIN_MODULES = ("repro.core.strategies", "repro.core.policies")
_BUILTINS_LOADED = False
_PLUGINS_LOADED = False


def _ensure_loaded() -> None:
    """Import built-in strategy modules and entry-point plugins once."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        # Set the flag first: the builtin modules import this module for
        # the decorator, so re-entry during their import must no-op.
        _BUILTINS_LOADED = True
        for mod in _BUILTIN_MODULES:
            importlib.import_module(mod)
    discover_plugins()


def _register(info: StrategyInfo, override: bool) -> None:
    existing = _REGISTRY.get(info.kind)
    if existing is not None and not override:
        if existing.builder is info.builder:
            # Idempotent re-registration (module re-import) is harmless.
            _REGISTRY[info.kind] = info
            return
        raise ConfigurationError(
            f"strategy kind {info.kind!r} is already registered to "
            f"{existing.builder!r}; pass override=True to replace it"
        )
    _REGISTRY[info.kind] = info


def register_strategy(
    kind: str,
    *,
    display_name: str = "",
    citation: str = "",
    arg_schema: Tuple[ArgSpec, ...] = (),
    example_args: Tuple[Any, ...] = (),
    example_options: Tuple[Tuple[str, Any], ...] = (),
    synthesis_weight: float = 0.0,
    synthesize: Optional[Callable[..., Any]] = None,
    summary: str = "",
    override: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class decorator registering a strategy family under ``kind``.

    Whether the vector engine may batch a family is not registry
    metadata: it is the built instance's ``vectorizable`` flag, which
    can depend on constructor arguments.
    """

    def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
        _register(
            StrategyInfo(
                kind=kind,
                builder=builder,
                display_name=display_name or kind,
                citation=citation,
                arg_schema=tuple(arg_schema),
                example_args=tuple(example_args),
                example_options=tuple(example_options),
                synthesis_weight=synthesis_weight,
                synthesize=synthesize,
                summary=summary,
            ),
            override=override,
        )
        return builder

    return decorator


def register_strategy_kind(
    kind: str,
    builder: Callable[..., Any],
    *,
    override: bool = False,
    **metadata: Any,
) -> None:
    """Functional registration (also exported by :mod:`repro.runtime`).

    Re-registering an existing kind raises
    :class:`~repro.errors.ConfigurationError`; pass ``override=True`` to
    replace it deliberately. Extra keyword arguments become
    :class:`StrategyInfo` metadata.
    """
    register_strategy(
        kind,
        display_name=metadata.pop("display_name", ""),
        citation=metadata.pop("citation", ""),
        arg_schema=tuple(metadata.pop("arg_schema", ())),
        example_args=tuple(metadata.pop("example_args", ())),
        example_options=tuple(metadata.pop("example_options", ())),
        synthesis_weight=metadata.pop("synthesis_weight", 0.0),
        synthesize=metadata.pop("synthesize", None),
        summary=metadata.pop("summary", ""),
        override=override,
    )(builder)
    if metadata:
        raise ConfigurationError(
            f"unknown registration metadata for {kind!r}: {sorted(metadata)}"
        )


def unregister_strategy(kind: str) -> None:
    """Remove a registered kind (test hygiene for temporary plugins)."""
    if kind not in _REGISTRY:
        raise ConfigurationError(f"strategy kind {kind!r} is not registered")
    del _REGISTRY[kind]


# --------------------------------------------------------------- enumeration
def strategy_kinds() -> List[str]:
    """All registered strategy kinds, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def strategy_infos() -> List[StrategyInfo]:
    """All registered :class:`StrategyInfo` entries, sorted by kind."""
    _ensure_loaded()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def strategy_info(kind: str) -> StrategyInfo:
    """The :class:`StrategyInfo` for ``kind`` (raises when unknown)."""
    info = _REGISTRY.get(kind)
    if info is None:
        _ensure_loaded()
        info = _REGISTRY.get(kind)
    if info is None:
        raise ConfigurationError(
            f"unknown strategy kind {kind!r}; registered: {strategy_kinds()}"
        )
    return info


def strategy_builder(kind: str) -> Callable[..., Any]:
    """The constructor registered under ``kind``."""
    return strategy_info(kind).builder


def info_for_builder(builder: Callable[..., Any]) -> Optional[StrategyInfo]:
    """Reverse lookup: the entry whose builder is ``builder`` (or a parent
    class of it), or ``None``."""
    _ensure_loaded()
    for info in _REGISTRY.values():
        if info.builder is builder:
            return info
    if isinstance(builder, type):
        for info in _REGISTRY.values():
            if isinstance(info.builder, type) and issubclass(builder, info.builder):
                return info
    return None


def example_spec(kind: str):
    """A representative :class:`~repro.runtime.spec.StrategySpec` for
    ``kind`` on the standard test grid, built from registry metadata."""
    info = strategy_info(kind)
    from repro.runtime.spec import StrategySpec  # deferred: spec imports us

    return StrategySpec(
        kind=kind,
        args=tuple(info.example_args),
        options=tuple(info.example_options),
    )


def synthesis_cohort() -> List[StrategyInfo]:
    """Families :func:`~repro.fleet.spec.synthesize_fleet` may draw,
    sorted by kind (deterministic draw order)."""
    return [i for i in strategy_infos() if i.synthesis_weight > 0]


# ------------------------------------------------------------------- plugins
def discover_plugins(force: bool = False) -> List[str]:
    """Load ``repro.strategies`` entry points; returns newly added kinds.

    A broken plugin warns instead of breaking every registry consumer.
    """
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED and not force:
        return []
    _PLUGINS_LOADED = True
    before = set(_REGISTRY)
    try:
        from importlib.metadata import entry_points

        eps = list(entry_points(group=ENTRY_POINT_GROUP))
    except Exception:  # pragma: no cover - metadata backend quirks
        return []
    for ep in eps:
        try:
            target = ep.load()
            if callable(target) and not isinstance(target, type):
                target()  # registration hook
        except Exception as exc:  # pragma: no cover - plugin bugs
            warnings.warn(
                f"failed to load strategy plugin {ep.name!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return sorted(set(_REGISTRY) - before)
