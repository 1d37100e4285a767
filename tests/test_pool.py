"""Pool mechanics against exact rational arithmetic.

Golden values below were computed with fractions.Fraction and frozen as
their float64 representations, so comparisons can be tight.
"""
import numpy as np
import pytest

from ammfg import (DomainError, PoolParams, PoolState, ReserveDepletionError,
                   bid_ask_mid, buy_swap, execute_swap, price_after_aggregate,
                   spot_price, spread_factor)


def test_spread_factor_golden_values():
    assert spread_factor(0.997) == pytest.approx(4.5135406218655965e-06, rel=1e-14)
    assert spread_factor(0.5) == pytest.approx(0.25, rel=1e-14)
    assert spread_factor(0.9) == pytest.approx(0.005555555555555556, rel=1e-14)
    assert spread_factor(0.99) == pytest.approx(5.0505050505050505e-05, rel=1e-14)
    assert spread_factor(0.9999) == pytest.approx(5.000500050005e-09, rel=1e-12)
    assert spread_factor(1.0) == 0.0


def test_spread_factor_array_and_monotone():
    phis = np.linspace(0.2, 1.0, 50)
    c = spread_factor(phis)
    assert c.shape == phis.shape
    assert np.all(np.diff(c) < 0)
    assert np.all(c[:-1] > 0)


def test_spread_factor_matches_mid_markup():
    # (1+phi^2)/(2 phi) - 1 equals (1-phi)^2/(2 phi) in exact arithmetic; the
    # subtraction form cancels near phi = 1, hence the absolute tolerance
    for phi in (0.3, 0.7, 0.997, 1.0):
        markup = (1.0 + phi**2) / (2.0 * phi) - 1.0
        assert spread_factor(phi) == pytest.approx(markup, abs=1e-15)


def test_spread_factor_rejects_bad_phi():
    with pytest.raises(DomainError):
        spread_factor(0.0)
    with pytest.raises(DomainError):
        spread_factor(1.5)
    with pytest.raises(DomainError):
        spread_factor(np.array([0.5, 2.0]))


def test_bid_ask_mid_goldens():
    bid, ask, mid = bid_ask_mid(100.0, 0.5)
    assert bid == 50.0
    assert ask == 200.0
    assert mid == 125.0
    _, _, mid997 = bid_ask_mid(100.0, 0.997)
    assert mid997 == pytest.approx(100.00045135406219, rel=1e-14)


def test_bid_ask_mid_ordering():
    rng = np.random.default_rng(7)
    for _ in range(200):
        price = float(rng.uniform(0.1, 500.0))
        phi = float(rng.uniform(0.2, 1.0))
        bid, ask, mid = bid_ask_mid(price, phi)
        assert bid <= price <= mid <= ask
    bid, ask, mid = bid_ask_mid(42.0, 1.0)
    assert bid == ask == mid == 42.0


def test_execute_swap_golden_phi_half():
    state = PoolState(100.0, 10_000.0)
    res = execute_swap(state, 10.0, 0.5)
    assert res.delta_out == pytest.approx(476.1904761904762, rel=1e-14)
    assert res.new_state.x == 110.0
    assert res.new_state.k == pytest.approx(1047619.0476190476, rel=1e-14)
    assert res.fee_paid == pytest.approx(5.0, rel=1e-14)


def test_execute_swap_golden_default_fee():
    res = execute_swap(PoolState(100.0, 10_000.0), 1.0, 0.997)
    assert res.delta_out == pytest.approx(98.71580343970614, rel=1e-14)
    assert res.new_state.y == pytest.approx(9901.284196560295, rel=1e-14)
    assert res.new_state.k == pytest.approx(1000029.7038525897, rel=1e-14)
    assert spot_price(res.new_state) == pytest.approx(98.03251679762667, rel=1e-14)


def test_execute_swap_negative_delta_rebates():
    # aggregate-flow convention: an outflow shrinks the invariant
    res = execute_swap(PoolState(100.0, 10_000.0), -20.0, 0.5)
    assert res.delta_out == pytest.approx(-1111.111111111111, rel=1e-14)
    assert res.new_state.y == pytest.approx(11111.111111111111, rel=1e-14)
    assert res.new_state.k == pytest.approx(888888.8888888889, rel=1e-14)
    assert res.new_state.k < 1e6


def test_execute_swap_invariant_growth_randomized():
    rng = np.random.default_rng(12345)
    for _ in range(500):
        x = float(rng.uniform(10.0, 1000.0))
        y = float(rng.uniform(10.0, 1e6))
        phi = float(rng.uniform(0.3, 0.9999))
        delta = float(rng.uniform(1e-6, 0.2 * x))
        res = execute_swap(PoolState(x, y), delta, phi)
        assert res.new_state.k > x * y
        predicted = (x + delta) * (x * y) / (x + phi * delta)
        assert res.new_state.k == pytest.approx(predicted, rel=1e-12)


def test_execute_swap_phi_one_preserves_invariant():
    rng = np.random.default_rng(99)
    for _ in range(100):
        x, y = float(rng.uniform(10, 500)), float(rng.uniform(10, 5000))
        delta = float(rng.uniform(-0.5 * x, 0.5 * x))
        res = execute_swap(PoolState(x, y), delta, 1.0)
        assert res.new_state.k == pytest.approx(x * y, rel=1e-12)
        assert res.fee_paid == 0.0


def test_execute_swap_depletion():
    with pytest.raises(ReserveDepletionError):
        execute_swap(PoolState(100.0, 10_000.0), -100.0, 0.5)
    with pytest.raises(ReserveDepletionError):
        execute_swap(PoolState(100.0, 10_000.0), -150.0, 1.0)


def test_buy_swap_golden():
    res = buy_swap(PoolState(100.0, 10_000.0), 10.0, 0.5)
    assert res.delta_out == 10.0
    assert res.new_state.x == 90.0
    assert res.new_state.y == pytest.approx(12222.222222222223, rel=1e-14)
    assert res.new_state.k == pytest.approx(1100000.0, rel=1e-14)
    assert res.fee_paid == pytest.approx(1111.111111111111, rel=1e-14)


def test_buy_swap_never_shrinks_invariant():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        x = float(rng.uniform(10.0, 1000.0))
        y = float(rng.uniform(10.0, 1e6))
        phi = float(rng.uniform(0.3, 1.0))
        out = float(rng.uniform(1e-6, 0.5 * x))
        res = buy_swap(PoolState(x, y), out, phi)
        assert res.new_state.k >= x * y * (1.0 - 1e-15)
        if phi < 1.0:
            assert res.new_state.k > x * y


def test_buy_swap_rejects_bad_requests():
    with pytest.raises(DomainError):
        buy_swap(PoolState(100.0, 10_000.0), -1.0, 0.5)
    with pytest.raises(ReserveDepletionError):
        buy_swap(PoolState(100.0, 10_000.0), 100.0, 0.5)


def test_price_after_aggregate_goldens():
    params = PoolParams(x0=100.0, k0=1e6, phi=0.5)
    assert price_after_aggregate(params, 10.0) == pytest.approx(
        86.58008658008659, rel=1e-14)
    params1 = PoolParams(x0=100.0, k0=1e6, phi=1.0)
    assert price_after_aggregate(params1, -50.0) == pytest.approx(400.0, rel=1e-14)


def test_price_after_aggregate_matches_executed_swap():
    rng = np.random.default_rng(55)
    for _ in range(300):
        x0 = float(rng.uniform(20.0, 500.0))
        k0 = float(rng.uniform(1e3, 1e7))
        phi = float(rng.uniform(0.3, 1.0))
        delta = float(rng.uniform(-0.4 * x0 / max(phi, 1.0), 0.5 * x0))
        params = PoolParams(x0=x0, k0=k0, phi=phi)
        res = execute_swap(params.initial_state(), delta, phi)
        assert price_after_aggregate(params, delta) == pytest.approx(
            spot_price(res.new_state), rel=1e-12)


def test_price_after_aggregate_array_input():
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997)
    deltas = np.array([-1.0, 0.0, 1.0])
    out = price_after_aggregate(params, deltas)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(100.0, rel=1e-14)
    with pytest.raises(ReserveDepletionError):
        price_after_aggregate(params, np.array([0.0, -100.0]))


def test_pool_params_validation():
    p = PoolParams(x0=100.0, k0=1e6, phi=0.997)
    assert p.tau == pytest.approx(0.003, abs=1e-15)
    assert p.y0 == pytest.approx(1e4, rel=1e-15)
    with pytest.raises(DomainError):
        PoolParams(x0=-1.0, k0=1e6, phi=0.997)
    with pytest.raises(DomainError):
        PoolParams(x0=100.0, k0=1e6, phi=1.2)
    with pytest.raises(DomainError):
        PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=-0.1)


def test_pool_state_requires_positive_reserves():
    with pytest.raises(ReserveDepletionError):
        PoolState(0.0, 10.0)
    with pytest.raises(ReserveDepletionError):
        PoolState(10.0, -1.0)


def test_spot_price():
    assert spot_price(PoolState(100.0, 10_000.0)) == 100.0
    assert spot_price(PoolState(100.997, 1e6 / 100.997)) == pytest.approx(
        98.03542874105463, rel=1e-14)
