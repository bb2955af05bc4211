"""Property-based laws of the related-work policy families.

Three families, three laws:

* the LP portfolio solver returns feasible, undominated, provably optimal
  portfolios (cross-checked against ``scipy.optimize.linprog``);
* the index tracker never places the service outside its tracking band;
* the no-fault-tolerance strategy never pays for a revoked partial hour,
  never falls back to on-demand, and never touches the checkpoint path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.cloud.provider import CloudProvider
from repro.core.bidding import ProactiveBidding, ReactiveBidding
from repro.core.policies import IndexTrackingStrategy, solve_portfolio_lp
from repro.core.simulation import RunSpec, build_stack, summarize_stack
from repro.obs import CheckpointRestore, CheckpointWrite, MemorySink, Revocation
from repro.runtime.spec import StrategySpec
from repro.testkit.faults import FaultPlan
from repro.testkit.strategies import risk_estimates, tracking_bands
from repro.traces.catalog import MarketKey, build_catalog
from repro.units import days, hours

pytestmark = pytest.mark.props

GRID_REGIONS = ("us-east-1a", "us-west-1a")
GRID_SIZES = ("small", "medium")

# One shared catalog/provider for the decision-level properties: the laws
# quantify over strategy configuration and query time, not market data.
_CATALOG = build_catalog(
    seed=314, horizon=days(2), regions=GRID_REGIONS, sizes=GRID_SIZES
)
_PROVIDER = CloudProvider(_CATALOG, rng=np.random.default_rng(0))


# ------------------------------------------------------------ LP portfolio
@given(risk_estimates())
def test_lp_solution_is_feasible(problem):
    costs, risks, cap = problem
    w = solve_portfolio_lp(costs, risks, cap)
    if w is None:
        # Infeasible is only legal when no single market clears the cap
        # (risk is linear, so mixing cannot rescue feasibility).
        assert np.all(risks > cap)
        return
    assert np.all(w >= -1e-12)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-9
    assert float(risks @ w) <= cap + 1e-9


@given(risk_estimates())
def test_lp_matches_scipy_linprog(problem):
    """Cross-check the closed-form vertex enumeration against HiGHS.

    scipy solves a *tolerance-relaxed* program (it will happily put
    weight on a market whose risk exceeds the cap by less than its
    feasibility tolerance), so the comparison goes through exactly
    feasible points only: our solution can never beat scipy's relaxed
    optimum, and whenever scipy's optimum is itself exactly feasible it
    upper-bounds ours — together that pins our objective to the true
    optimum.
    """
    costs, risks, cap = problem
    w = solve_portfolio_lp(costs, risks, cap)
    ref = linprog(
        costs,
        A_ub=[risks],
        b_ub=[cap],
        A_eq=[np.ones_like(costs)],
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
    )
    if w is None:
        # Exactly infeasible. scipy may still "succeed" inside its
        # tolerance, but its point must violate the exact constraint.
        if ref.success:
            assert float(risks @ ref.x) > cap
        return
    assert ref.success
    ours = float(costs @ w)
    assert ours >= ref.fun - 1e-7  # the relaxation can only do better
    exactly_feasible = (
        float(risks @ ref.x) <= cap and abs(float(np.sum(ref.x)) - 1.0) <= 1e-9
    )
    if exactly_feasible:
        assert ours <= ref.fun + 1e-7


@given(risk_estimates())
def test_lp_support_is_never_dominated(problem):
    """No market in the optimal support is strictly dominated: a cheaper
    market that is no riskier would always absorb its weight."""
    costs, risks, cap = problem
    w = solve_portfolio_lp(costs, risks, cap)
    if w is None:
        return
    for m in np.flatnonzero(w > 1e-9):
        dominated = (costs < costs[m] - 1e-9) & (risks <= risks[m])
        assert not np.any(dominated), (
            f"market {m} (cost={costs[m]}, risk={risks[m]}) kept weight "
            f"{w[m]} despite a strictly cheaper, no-riskier alternative"
        )


# ---------------------------------------------------------- index tracking
@given(
    tracking_bands(),
    st.floats(min_value=0.0, max_value=0.98),
    st.sampled_from([2.5, 3.0, 4.0]),
)
def test_index_tracker_stays_within_band(band_cfg, frac, k):
    band, n_markets = band_cfg
    strat = IndexTrackingStrategy(
        GRID_REGIONS, service_units=8, n_markets=n_markets, band=band
    )
    t = frac * _CATALOG.horizon
    target = strat.best_spot_target(_PROVIDER, ProactiveBidding(k=k), t)
    basket = strat.basket(_PROVIDER)
    assert len(basket) == min(n_markets, len(_CATALOG.markets()))
    if target is None:
        return
    assert target.key in basket
    assert target.rate <= (1.0 + band) * strat.index_rate(_PROVIDER) + 1e-9


@given(tracking_bands())
def test_index_baseline_is_the_index(band_cfg):
    band, n_markets = band_cfg
    strat = IndexTrackingStrategy(GRID_REGIONS, n_markets=n_markets, band=band)
    rates = [strat.on_demand_rate(_PROVIDER, key) for key in strat.basket(_PROVIDER)]
    assert strat.baseline_rate(_PROVIDER) == pytest.approx(float(np.mean(rates)))


# ------------------------------------------------------- no fault tolerance
@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=10.0, max_value=40.0),
)
def test_no_ft_never_pays_revoked_partial_hour(seed, spike_start_h):
    """A correlated spike revokes the no-FT tenant; every revoked partial
    hour bills zero, no on-demand server is ever bought, and the
    checkpoint machinery stays cold."""
    cfg = RunSpec(
        strategy=StrategySpec.no_fault_tolerance(MarketKey("us-east-1a", "small")),
        bidding=ReactiveBidding(),
        seed=seed,
        horizon_s=days(3),
        regions=("us-east-1a",),
        sizes=("small",),
        faults=FaultPlan.correlated_spike(hours(spike_start_h), hours(2)),
        label="props/no-ft",
    )
    sink = MemorySink()
    stack = build_stack(cfg, sink=sink)
    stack.scheduler.run()
    summarize_stack(stack)

    revocations = [e for e in sink.events if isinstance(e, Revocation)]
    assert revocations, "the correlated spike must revoke the tenant"
    entries = stack.scheduler.ledger.entries
    assert all(e.amount == 0.0 for e in entries if e.note == "revoked-free")
    assert stack.scheduler.ledger.total_by_kind("on_demand") == 0.0
    assert not any(
        isinstance(ev, (CheckpointWrite, CheckpointRestore)) for ev in sink.events
    )
