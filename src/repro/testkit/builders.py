"""Deterministic trace/catalog builders shared by tests and tools.

These started life as ad-hoc helpers in ``tests/conftest.py``; they live
here so unit tests, property tests, golden scenarios and downstream users
all build small markets the same way.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from repro.traces.catalog import MarketKey, TraceCatalog
from repro.traces.trace import PriceTrace

__all__ = [
    "make_step_trace",
    "make_constant_trace",
    "make_catalog",
    "single_market_catalog",
]


def make_step_trace(
    segments: Sequence[Tuple[float, float]], horizon: float, **kw: str
) -> PriceTrace:
    """Build a trace from ``[(time, price), ...]`` pairs.

    The first pair's time is the trace start; each price holds until the
    next pair's time (right-open), the last until ``horizon``.
    """
    times = [s[0] for s in segments]
    prices = [s[1] for s in segments]
    return PriceTrace(times, prices, horizon, **kw)


def make_constant_trace(price: float, horizon: float, start: float = 0.0, **kw: str) -> PriceTrace:
    """A single-price trace over ``[start, horizon)``."""
    return PriceTrace.constant(price, start, horizon, **kw)


def make_catalog(
    traces: Mapping[MarketKey, PriceTrace],
    on_demand: Mapping[MarketKey, float],
) -> TraceCatalog:
    """A catalog from explicit per-market traces and on-demand prices.

    The horizon is taken from the traces (they must agree, as
    :class:`~repro.traces.catalog.TraceCatalog` enforces).
    """
    horizon = next(iter(traces.values())).horizon
    return TraceCatalog(traces, on_demand, horizon)


def single_market_catalog(
    trace: PriceTrace,
    on_demand_price: float = 0.06,
    key: MarketKey | None = None,
) -> TraceCatalog:
    """A one-market catalog around ``trace`` (default market
    ``us-east-1a/small``), the workhorse of deterministic scheduler tests."""
    key = key or MarketKey("us-east-1a", "small")
    return TraceCatalog({key: trace}, {key: on_demand_price}, trace.horizon)
