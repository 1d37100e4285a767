"""Property tests: the reward sandwich, the swap invariant identities, and the
array forms of the pool formulas the N-player simulator runs on.

Hypothesis draws the inputs; the example budget is bounded so the suite's
run time stays fixed.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ammfg import (ControlBounds, Grids, PoolParams, PoolState, RewardKind, Variant,
                   bid_ask_mid, bound_constant, buy_swap, execute_swap, make_path,
                   quadratic_costs, reward)

G = Grids(n_t=10, n_x=11)
COSTS = quadratic_costs()
PROPERTY = settings(max_examples=60, deadline=None)
N_POINTS = 32


def uniform(n, lo=0.0, hi=1.0):
    return hnp.arrays(float, n, elements=st.floats(lo, hi))


@PROPERTY
@given(phi=st.floats(0.01, 1.0), young_eps=st.floats(1e-3, 1e3),
       denom_exp=st.sampled_from([1, 2]), a_min=st.floats(-1.0, 0.0),
       a_max=st.floats(0.0, 1.0), u=uniform(G.n_t + 1), t=uniform(N_POINTS),
       x=uniform(N_POINTS, G.x_min, G.x_max), v=uniform(N_POINTS))
def test_reward_sandwich_ordering(phi, young_eps, denom_exp, a_min, a_max, u, t, x, v):
    """f1 <= f <= f2 at every a >= 0, for any admissible crowd path."""
    bounds = ControlBounds(a_min, a_max)
    params = PoolParams(100.0, 1e6, phi)
    path = make_path(a_min + (a_max - a_min) * u, G, bounds, params.x0)
    consts = bound_constant(params, COSTS, bounds, G.horizon, denom_exp)
    a = a_max * v
    f1, f, f2 = (reward(RewardKind(var, young_eps, denom_exp), t, x, a, path, params,
                        COSTS, consts)
                 for var in (Variant.LOWER, Variant.ORIGINAL, Variant.UPPER))
    tol = 1e-12 * (1.0 + np.abs(f))
    assert np.all(f1 <= f + tol)
    assert np.all(f <= f2 + tol)


reserves = st.tuples(st.floats(10.0, 1e3), st.floats(10.0, 1e6))


@PROPERTY
@given(xy=reserves, phi=st.floats(0.01, 1.0), share=st.floats(-0.9, 1.0))
def test_execute_swap_identities(xy, phi, share):
    """The output leg keeps (x + phi*delta) * y' = k; the invariant moves with the flow."""
    x, y = xy
    k, delta = x * y, share * x
    res = execute_swap(PoolState(x, y), delta, phi)
    assert res.new_state.x == x + delta
    assert (x + phi * delta) * res.new_state.y == pytest.approx(k, rel=1e-12)
    assert res.new_state.k == pytest.approx((x + delta) * k / (x + phi * delta), rel=1e-12)
    assert res.fee_paid == (1.0 - phi) * delta
    if delta >= 0:
        assert res.new_state.k >= k * (1.0 - 1e-12)
    else:
        assert res.new_state.k <= k * (1.0 + 1e-12)


@PROPERTY
@given(xy=reserves, phi=st.floats(0.01, 1.0), share=st.floats(0.0, 0.9))
def test_buy_swap_identities(xy, phi, share):
    """The discounted payment keeps (x - out) * (y + phi*pay) = k; k never shrinks."""
    x, y = xy
    k, out = x * y, share * x
    res = buy_swap(PoolState(x, y), out, phi)
    pay = res.new_state.y - y
    assert res.delta_out == out
    assert res.new_state.x == x - out
    assert (x - out) * (y + phi * pay) == pytest.approx(k, rel=1e-12)
    assert res.fee_paid == pytest.approx((1.0 - phi) * pay, rel=1e-12, abs=1e-9)
    assert res.new_state.k >= k * (1.0 - 1e-12)


def _swap_fields(res):
    return res.delta_out, res.new_state.x, res.new_state.y, res.fee_paid


@PROPERTY
@given(pools=st.lists(st.tuples(st.floats(10.0, 1e3), st.floats(10.0, 1e6),
                                st.floats(-0.9, 0.9)), min_size=1, max_size=16),
       phi=st.floats(0.01, 1.0))
def test_array_pool_formulas_match_scalar_calls(pools, phi):
    """A batch of pools moves exactly as each pool would alone, bit for bit."""
    x, y, share = map(np.array, zip(*pools))
    state = PoolState(x, y)
    delta = share * x
    cases = [(execute_swap(state, delta, phi),
              [execute_swap(PoolState(a, b), s * a, phi) for a, b, s in pools]),
             (buy_swap(state, np.abs(delta), phi),
              [buy_swap(PoolState(a, b), abs(s * a), phi) for a, b, s in pools])]
    for batch, singles in cases:
        for got, want in zip(_swap_fields(batch), zip(*map(_swap_fields, singles))):
            np.testing.assert_array_equal(got, want)
    quotes = bid_ask_mid(y / x, phi)
    singles = [bid_ask_mid(b / a, phi) for a, b, _ in pools]
    for got, want in zip(quotes, zip(*singles)):
        np.testing.assert_array_equal(got, want)
