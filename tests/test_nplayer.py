import numpy as np
import pytest

from ammfg.errors import AdmissibilityError, DomainError
from ammfg.grids import ControlBounds, Grids, InitialLaw, make_path
from ammfg.nplayer import (DeviationGain, SimConfig, deviation_gain,
                           impact_aware_reward, simulate)
from ammfg.pool import (PoolParams, buy_swap, execute_swap, price_after_aggregate,
                        spot_price)
from ammfg.rewards import RewardKind, Variant, quadratic_costs
from ammfg.solver import Policy, constant_policy

BOUNDS = ControlBounds(0.0, 0.5)
COSTS = quadratic_costs(0.5, 0.5, 1.0)


def test_sim_config_validation():
    with pytest.raises(DomainError, match="n_traders"):
        SimConfig(n_traders=0)
    with pytest.raises(DomainError, match="n_reps"):
        SimConfig(n_reps=0)
    with pytest.raises(DomainError, match="price_mode"):
        SimConfig(price_mode="midpoint")
    with pytest.raises(DomainError, match="p_min"):
        SimConfig(p_min=0.0)


def test_simulate_shapes_and_mean_control(grids_small, params_default):
    cfg = SimConfig(n_traders=4, n_reps=3)
    pol = constant_policy(0.2, grids_small, BOUNDS)
    res = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS,
                   InitialLaw(0.0, 0.5), seed=7)
    n_t = grids_small.n_t
    assert res.profits.shape == (3, 4)
    assert res.mean_control.shape == (n_t + 1,)
    for name in ("price_path", "price_aggregate", "price_sequential",
                 "k_path_aggregate", "k_path_sequential"):
        assert getattr(res, name).shape == (n_t + 1,)
    # the terminal node repeats the last traded interval
    assert res.mean_control[n_t] == res.mean_control[n_t - 1]
    assert np.all(res.mean_control >= 0.0) and np.all(res.mean_control <= 0.5)
    assert np.isfinite(res.mode_discrepancy)


def test_simulate_rejects_inadmissible_bounds(grids_small, params_default):
    wide = ControlBounds(0.0, 200.0)
    pol = constant_policy(0.0, grids_small, wide)
    with pytest.raises(AdmissibilityError, match="deplete"):
        simulate(pol, SimConfig(n_traders=2, n_reps=1), grids_small, wide,
                 params_default, COSTS, InitialLaw(0.0, 0.0))


def test_simulate_deterministic(grids_small, params_default):
    cfg = SimConfig(n_traders=3, n_reps=4)
    pol = constant_policy(0.1, grids_small, BOUNDS)
    law = InitialLaw(0.0, 1.0)
    a = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=11)
    b = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=11)
    c = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=12)
    np.testing.assert_array_equal(a.profits, b.profits)
    np.testing.assert_array_equal(a.mean_control, b.mean_control)
    np.testing.assert_array_equal(a.price_path, c.price_path)  # noise-free here
    assert not np.array_equal(a.profits, c.profits)


def test_replications_are_keyed_not_batched(grids_small, params_default):
    # rep r draws from substream (seed, "sim", r), so a longer run extends a
    # shorter one row for row
    cfg = SimConfig(n_traders=3, n_reps=5)
    pol = constant_policy(0.1, grids_small, BOUNDS)
    law = InitialLaw(0.0, 1.0)
    five = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=5)
    three = simulate(pol, SimConfig(n_traders=3, n_reps=3), grids_small, BOUNDS,
                     params_default, COSTS, law, seed=5)
    np.testing.assert_array_equal(five.profits[:3], three.profits)
    np.testing.assert_array_equal(five.price_path, three.price_path)


def test_idle_market_profit_exact():
    g = Grids(horizon=1.0, n_t=16, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.997, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.0, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=2, n_reps=2), g, BOUNDS, params,
                   COSTS, InitialLaw(1.0, 0.0), seed=1)
    # x == 1 throughout, price pinned at k0/x0^2 = 100, dt exactly 2^-4:
    # profit = 1*100 - 0.5*T - l(1) with no float slack anywhere
    assert np.all(res.profits == 99.0)
    assert np.all(res.mean_control == 0.0)
    assert np.all(res.price_path == 100.0)


def test_aggregate_price_and_invariant_paths():
    g = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.5, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=1, n_reps=1), g, BOUNDS, params,
                   COSTS, InitialLaw(0.0, 0.0), seed=1)
    flow = 0.5 * g.t_nodes()
    x0, k0, phi = params.x0, params.k0, params.phi
    np.testing.assert_allclose(
        res.price_aggregate, k0 / ((x0 - phi * flow) * (x0 - flow)), rtol=1e-12)
    np.testing.assert_allclose(
        res.k_path_aggregate, (x0 - flow) * k0 / (x0 - phi * flow), rtol=1e-12)
    # net buying: the one-shot convention rebates fees, the stepwise pool
    # collects them
    assert res.k_path_aggregate[0] == k0
    assert np.all(np.diff(res.k_path_aggregate) < 0)
    assert res.k_path_sequential[0] == k0
    assert np.all(np.diff(res.k_path_sequential) > 0)
    assert res.k_min_increment > 0
    assert res.mode_discrepancy > 0
    assert np.all(res.price_sequential >= res.price_aggregate - 1e-15)
    # noise-free aggregate mode trades at the aggregate price
    np.testing.assert_array_equal(res.price_path, res.price_aggregate)


def test_fee_free_modes_agree():
    g = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 1.0, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.5, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=1, n_reps=1), g, BOUNDS, params,
                   COSTS, InitialLaw(0.0, 0.0), seed=1)
    assert res.mode_discrepancy <= 1e-9


def test_sequential_mode_price_path():
    g = Grids(horizon=1.0, n_t=10, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.3, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=2, n_reps=1, price_mode="sequential"),
                   g, BOUNDS, params, COSTS, InitialLaw(0.0, 0.0), seed=1)
    np.testing.assert_array_equal(res.price_path, res.price_sequential)


def test_pool_paths_replay_through_pool_formulas():
    # the crowd buys for the first half of the horizon and sells for the
    # second, so both legs of the sequential venue run; replaying the mean
    # flow through the scalar pool functions rebuilds every pool path exactly
    g = Grids(horizon=1.0, n_t=40, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    bounds = ControlBounds(-0.5, 0.5)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.5, sigma0=0.0)
    rows = np.where(np.arange(g.n_t)[:, None] < g.n_t // 2, 0.4, -0.3)
    pol = Policy(t_nodes=g.t_nodes(), x_nodes=g.x_nodes(),
                 controls=rows * np.ones((g.n_t, g.n_x)))
    res = simulate(pol, SimConfig(n_traders=3, n_reps=1, price_mode="sequential"),
                   g, bounds, params, COSTS, InitialLaw(0.0, 1.0), seed=2)
    steps = res.mean_control[:-1]
    assert np.sum(steps > 0) == np.sum(steps < 0) == 20
    state = params.initial_state()
    prices, ks, flow = [spot_price(state)], [state.k], [0.0]
    for m in steps:
        delta = -m * g.dt
        swap = (execute_swap(state, delta, params.phi) if delta >= 0
                else buy_swap(state, -delta, params.phi))
        state = swap.new_state
        prices.append(spot_price(state))
        ks.append(state.k)
        flow.append(flow[-1] + m * g.dt)
    np.testing.assert_array_equal(res.price_sequential, prices)
    np.testing.assert_array_equal(res.k_path_sequential, ks)
    np.testing.assert_array_equal(res.price_aggregate,
                                  price_after_aggregate(params, -np.array(flow)))
    np.testing.assert_array_equal(res.price_path, res.price_sequential)


def test_price_floor_engages(grids_small):
    params = PoolParams(100.0, 1e6, 0.997, sigma=0.0, sigma0=1e6)
    pol = constant_policy(0.0, grids_small, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=2, n_reps=4, p_min=1e-6),
                   grids_small, BOUNDS, params, COSTS, InitialLaw(0.0, 0.0), seed=9)
    assert res.floored_steps > 0
    assert np.min(res.price_path) >= 1e-6
    assert np.all(np.isfinite(res.profits))


def test_deviation_gain_null(grids_small, params_default):
    pol = constant_policy(0.2, grids_small, BOUNDS)
    out = deviation_gain(pol, pol, SimConfig(n_traders=3, n_reps=7), grids_small,
                         BOUNDS, params_default, COSTS, InitialLaw(0.0, 1.0), seed=21)
    assert isinstance(out, DeviationGain)
    assert out.gain == 0.0 and out.stderr == 0.0
    assert out.ci_low == 0.0 and out.ci_high == 0.0
    assert out.n_reps == 7


def test_deviation_gain_paired_ci(grids_small, params_default):
    crowd = constant_policy(0.3, grids_small, BOUNDS)
    dev = constant_policy(0.0, grids_small, BOUNDS)
    out = deviation_gain(crowd, dev, SimConfig(n_traders=3, n_reps=16),
                         grids_small, BOUNDS, params_default, COSTS,
                         InitialLaw(0.0, 1.0), seed=21)
    assert out.ci_low == pytest.approx(out.gain - 1.96 * out.stderr, rel=1e-12)
    assert out.ci_high == pytest.approx(out.gain + 1.96 * out.stderr, rel=1e-12)
    assert out.stderr > 0


def test_single_trader_profit_matches_closed_form():
    # phi = 1 kills the spread and the fee, so trader wealth against its own
    # price impact has a closed per-step form
    g = Grids(horizon=1.0, n_t=100, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 1.0, sigma=0.0, sigma0=0.0)
    costs0 = quadratic_costs(0.0, 0.0, 1.0)
    pol = constant_policy(0.5, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=1, n_reps=1), g, BOUNDS, params,
                   costs0, InitialLaw(0.0, 0.0), seed=1)
    tk = g.t_nodes()
    price = params.k0 / (params.x0 - 0.5 * tk) ** 2
    expected = -0.5 * np.sum(price[:-1] * g.dt) + 0.5 * price[-1]
    assert res.profits[0, 0] == pytest.approx(expected, rel=1e-12)
    # left-endpoint quadrature sits within O(dt) of the continuous-time value
    assert abs(expected - 0.252518875785965) < 0.003


def test_impact_aware_reward_golden():
    g = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.5)
    path = make_path(np.full(g.n_t + 1, 0.3), g, BOUNDS, params.x0)
    kind = RewardKind(Variant.ORIGINAL)
    f1 = impact_aware_reward(1, params, COSTS, kind)
    f2 = impact_aware_reward(2, params, COSTS, kind)
    assert float(f1(0.5, 1.2, 0.25, path)) == pytest.approx(
        -0.1475679877427425, rel=1e-13)
    assert float(f2(0.5, 1.2, 0.25, path)) == pytest.approx(
        -0.09032338968316167, rel=1e-13)
    # huge crowds recover the mean-field drift x*kernel*m
    f_inf = impact_aware_reward(10**9, params, COSTS, kind)
    mf = 1.2 * 0.5724459805958076 - 1.3968338550196274e-05 - 0.72
    assert float(f_inf(0.5, 1.2, 0.25, path)) == pytest.approx(mf, rel=1e-8)
    out = f2(0.5, np.array([1.2, -0.4]), np.array([0.25, 0.0]), path)
    assert np.asarray(out).shape == (2,)
