"""Backward induction, propagation, and the two value estimators.

The main oracle here is a closed form: with sigma = 0, zero inventory costs,
and a constant crowd rate, the LOWER-kind value function is linear in x at
every time level, V_k(x) = G_k x + c_k with G_k the tail sum of the price
drift. The optimal control is then the explicit vertex
a*_k = clip(G_{k+1} / (young_eps * spread^2), a_min, a_max), which the
grid solver must reproduce through its parabolic refinement. Nodes within
reach of the state-grid edge are excluded: continuation reads clamp there
and the linear form does not apply.
"""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ammfg import (ControlBounds, DomainError, Grids, InitialLaw, NumericalError,
                   PoolParams, Policy, RewardKind, UsageError, Variant, evaluate,
                   girsanov_evaluate, make_path, propagate, quadratic_costs, solve_hjb,
                   solver, spread_factor, terminal_reward, zero_path)
from ammfg.nplayer import impact_aware_reward
from ammfg.streams import substream
from policies import constant_policy

B = ControlBounds(0.0, 0.5)


def test_solve_hjb_shapes_and_terminal(grids_small, bounds_default,
                                       params_default, costs_default):
    path = zero_path(grids_small, bounds_default, params_default.x0)
    pol = solve_hjb(path, RewardKind(Variant.ORIGINAL), grids_small,
                    bounds_default, params_default, costs_default)
    assert pol.controls.shape == (20, 61)
    assert pol.values.shape == (21, 61)
    assert pol.switches.shape == (20, 60)
    x = grids_small.x_nodes()
    np.testing.assert_allclose(pol.values[-1], -0.5 * x**2)
    assert np.all((pol.controls >= 0.0) & (pol.controls <= 0.5))


def test_solve_hjb_rejects_mismatched_path(grids_small, bounds_default,
                                           params_default, costs_default):
    other = Grids(n_t=7, n_x=11)
    path = zero_path(other, bounds_default, params_default.x0)
    with pytest.raises(UsageError):
        solve_hjb(path, RewardKind(Variant.ORIGINAL), grids_small,
                  bounds_default, params_default, costs_default)


def test_lower_kind_matches_linear_value_closed_form():
    g = Grids(n_t=20, n_x=61, n_a=11, n_particles=100, seed=5)
    params = PoolParams(x0=100.0, k0=1e6, phi=0.5, sigma=0.0)
    costs = quadratic_costs(0.0, 0.0, 1.0)
    eps = 30.0
    kind = RewardKind(Variant.LOWER, young_eps=eps, denom_exp=2)
    path = make_path(np.full(21, 0.5), g, B, params.x0)

    t = g.t_nodes()
    dt = g.dt
    da = 0.05
    c2 = spread_factor(0.5) ** 2
    cum = 0.5 * t
    kern = (params.k0 * ((1.5) * 100.0 - 1.0 * cum)
            / ((100.0 - cum) ** 2 * (100.0 - 0.5 * cum) ** 2))
    gam = 0.5 * kern
    depth = params.k0 / ((100.0 - cum) * (100.0 - 0.5 * cum)) ** 2

    big_g = 0.0
    const = 0.0
    a_star = np.empty(g.n_t)
    for k in range(g.n_t - 1, -1, -1):
        a = min(max(big_g / (eps * c2), 0.0), 0.5)
        a_star[k] = a
        const += dt * (a * big_g - 0.5 * eps * c2 * a**2 - 0.5 * depth[k] ** 2 / eps)
        big_g += gam[k] * dt

    pol = solve_hjb(path, kind, g, B, params, costs)
    clean = slice(0, 40)  # x <= 0.9: beyond the reach of edge clamping
    checked = 0
    for k in range(g.n_t):
        a = a_star[k]
        if da / 2 + 1e-3 < a < 0.5 - da / 2 - 1e-3:
            # nearest grid node is interior, so the parabola vertex is exact
            np.testing.assert_allclose(pol.controls[k, clean], a, atol=1e-9)
            checked += 1
        elif a < da / 2 - 1e-3:
            # vertex closer to zero than half a step: the boundary node wins
            # and the bang-bang guard must leave it unrefined
            np.testing.assert_array_equal(pol.controls[k, clean], 0.0)
    assert checked >= 15
    # grid-max values sit just below the continuous optimum
    x = g.x_nodes()[clean]
    closed = big_g * x + const
    diff = pol.values[0, clean] - closed
    assert np.max(diff) <= 1e-10
    assert np.min(diff) >= -1e-3
    # constant controls in x leave no switching cells away from the
    # clamped top edge (the edge region genuinely switches to zero)
    assert np.all(np.isnan(pol.switches[:, :39]))


def _interp_hjb(path, kind, grids, bounds, params, costs):
    """Brute-force backward induction: np.interp at every clamped stencil point.

    Returns the value surface and the argmax index per (step, node), with the
    solver's tie-break order and without its sub-grid refinement.
    """
    f = solver._running_reward(None, kind, grids, bounds, params, costs)
    t, x, a, dt = grids.t_nodes(), grids.x_nodes(), bounds.grid(grids.n_a), grids.dt
    z, w = np.polynomial.hermite_e.hermegauss(grids.n_quad)
    w = w / w.sum()
    points = np.clip(x[:, None, None] + dt * a[None, :, None]
                     + params.sigma * np.sqrt(dt) * z[None, None, :], x[0], x[-1])
    order = np.lexsort((a, np.abs(a)))
    values = np.empty((grids.n_t + 1, grids.n_x))
    values[-1] = terminal_reward(x, costs)
    best = np.empty((grids.n_t, grids.n_x), dtype=np.int64)
    for k in range(grids.n_t - 1, -1, -1):
        running = f(t[k], x[:, None], a[None, :], path)
        q = dt * running + (np.interp(points, x, values[k + 1]) * w).sum(axis=2)
        best[k] = order[np.argmax(q[:, order], axis=1)]
        values[k] = q[np.arange(grids.n_x), best[k]]
    return values, best


@pytest.mark.parametrize("grid_kw, bounds, sigma", [
    ({}, B, 0.5),                                   # desk defaults
    ({"n_a": 10}, ControlBounds(-0.5, 0.5), 0.5),   # no zero node: near ties
    ({"n_a": 1}, B, 0.5),
    ({}, B, 0.0),
    ({"n_t": 1}, B, 0.5),
    ({"n_x": 801, "n_a": 81}, B, 0.5),
    ({"n_t": 100, "n_x": 11}, B, 50.0),             # kernel wider than the grid
])
def test_banded_expectation_matches_interp_reference(grid_kw, bounds, sigma,
                                                     costs_default):
    g = Grids(**grid_kw)
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=sigma)
    kind = RewardKind(Variant.ORIGINAL)
    path = zero_path(g, bounds, params.x0)
    pol = solve_hjb(path, kind, g, bounds, params, costs_default)
    values, best = _interp_hjb(path, kind, g, bounds, params, costs_default)
    np.testing.assert_allclose(pol.values, values, rtol=0, atol=1e-10)
    # the sub-grid refinement moves a control by less than half a step
    a = bounds.grid(g.n_a)
    da = a[1] - a[0] if g.n_a > 1 else 1.0
    np.testing.assert_array_equal(np.rint((pol.controls - a[0]) / da), best)
    # offsets capped at +-n_x keep the widest kernel at 2 n_x + 2 taps
    _, kernel = solver._expectation_kernel(g.x_nodes(), g.dt * a, sigma * np.sqrt(g.dt),
                                           g.n_quad)
    assert len(kernel) <= 2 * g.n_x + 2
    assert (len(kernel) > g.n_x) == (sigma == 50.0)


@pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.LOWER, Variant.UPPER])
def test_controls_pinned_to_interp_reference(variant, grids_small, bounds_default,
                                             params_default, costs_default):
    # the small-grid best responses are bang-bang, so every control is a grid
    # node and any change of the continuation operator that flips an argmax
    # shows here as an exact mismatch
    kind = RewardKind(variant)
    path = make_path(np.full(21, 0.2), grids_small, bounds_default, params_default.x0)
    pol = solve_hjb(path, kind, grids_small, bounds_default, params_default,
                    costs_default)
    _, best = _interp_hjb(path, kind, grids_small, bounds_default, params_default,
                          costs_default)
    np.testing.assert_array_equal(pol.controls, bounds_default.grid(grids_small.n_a)[best])


def _stepwise_hjb(path, kind, grids, bounds, params, costs, reward_fn=None):
    """solve_hjb as one loop: each step refines its controls and places its switches.

    The reference for solve_hjb's two passes, which must match it bit for bit:
    per step the tie-broken argmax over the reordered q, then the parabola
    refinement and the switch placement on that step's q.
    """
    f = solver._running_reward(reward_fn, kind, grids, bounds, params, costs)
    t, x, a, dt = grids.t_nodes(), grids.x_nodes(), bounds.grid(grids.n_a), grids.dt
    order = np.lexsort((a, np.abs(a)))
    values = np.empty((grids.n_t + 1, grids.n_x))
    controls = np.empty((grids.n_t, grids.n_x))
    switches = np.full((grids.n_t, grids.n_x - 1), np.nan)
    reads, kernel = solver._expectation_kernel(x, dt * a, params.sigma * np.sqrt(dt),
                                               grids.n_quad)
    values[-1] = terminal_reward(x, costs)
    rows, cells = np.arange(grids.n_x), np.arange(grids.n_x - 1)
    da = a[1] - a[0] if grids.n_a > 1 else 0.0
    block = math.isqrt(grids.n_t) + 1
    start = grids.n_t + 1
    for k in range(grids.n_t - 1, -1, -1):
        if k < start:
            stop, start = start, max(start - block, 0)
            running = np.broadcast_to(
                f(t[start:stop, None, None], x[None, :, None], a[None, None, :], path),
                (stop - start, grids.n_x, grids.n_a))
        q = dt * running[k - start] + values[k + 1][reads] @ kernel
        best = order[np.argmax(q[:, order], axis=1)]
        values[k] = q[rows, best]
        controls[k] = a[best]
        interior = (best > 0) & (best < grids.n_a - 1)
        if da > 0 and interior.any():
            lo = q[rows, np.maximum(best - 1, 0)]
            hi = q[rows, np.minimum(best + 1, grids.n_a - 1)]
            denom = 2.0 * values[k] - lo - hi
            refine = interior & ((lo < values[k]) | (hi < values[k])) & (denom > 0)
            offset = np.where(refine, (hi - lo) / np.where(denom > 0, 2.0 * denom, 1.0), 0.0)
            controls[k] += offset * da
        bl, br = best[:-1], best[1:]
        jump = (bl != br) & (np.abs(a[bl] - a[br]) > 1.5 * da)
        if jump.any():
            idx = cells[jump]
            dl = q[idx, bl[idx]] - q[idx, br[idx]]
            dr = q[idx + 1, bl[idx]] - q[idx + 1, br[idx]]
            span = dl - dr
            s = np.where(span > 0, dl / np.where(span > 0, span, 1.0), 0.5)
            switches[k, idx] = np.clip(s, 0.0, 1.0)
        if not np.isfinite(values[k]).all():
            raise NumericalError(f"non-finite value surface at step {k}")
    return controls, values, switches


def _impact_aware(params, costs, kind):
    return impact_aware_reward(10, params, costs, kind)


def _flat(params, costs, kind):
    return lambda t, x, a, p: np.zeros(np.broadcast(t, x, a).shape)


def _bowl(params, costs, kind):
    # peaks at a = x/10: interior argmaxes left of x = 0, a = a_max right of it
    return lambda t, x, a, p: -100.0 * (a - 0.1 * x) ** 2 + 0.0 * t


NO_COSTS = quadratic_costs(0.0, 0.0, 1.0)


@pytest.mark.parametrize("grid_kw, bounds, sigma, reward, costs", [
    pytest.param({}, B, 0.5, None, None, id="desk"),
    pytest.param({"n_a": 10}, ControlBounds(-0.5, 0.5), 0.5, None, None, id="symmetric"),
    # q ties across the whole row: only the tie-break order picks the argmax
    pytest.param({"n_a": 10}, ControlBounds(-0.5, 0.5), 0.0, _flat, NO_COSTS, id="flat"),
    # rows mixing interior argmaxes with the grid point a_max = -0.0
    pytest.param({"n_a": 11}, ControlBounds(-0.5, -0.0), 0.5, _bowl, None, id="signed-zero"),
    pytest.param({"n_a": 1}, B, 0.5, None, None, id="n_a=1"),
    pytest.param({"n_a": 2}, B, 0.5, None, None, id="n_a=2"),
    pytest.param({}, B, 0.0, None, None, id="sigma=0"),
    pytest.param({"n_t": 1}, B, 0.5, None, None, id="n_t=1"),
    pytest.param({"n_t": 100, "n_x": 11}, B, 50.0, None, None, id="wide-kernel"),
    pytest.param({}, B, 0.5, _impact_aware, None, id="impact-aware"),
])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("level", [0.0, 0.3])
def test_solve_hjb_is_the_stepwise_loop_bit_for_bit(grid_kw, bounds, sigma, reward, costs,
                                                   variant, level, costs_default):
    g = Grids(**grid_kw)
    costs = costs or costs_default
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=sigma)
    kind = RewardKind(variant)
    # a crowd that trades harder over time, capped at the bounds
    m = np.clip(level * np.linspace(0.5, 1.5, g.n_t + 1), bounds.a_min, bounds.a_max)
    path = make_path(m, g, bounds, params.x0)
    reward_fn = None if reward is None else reward(params, costs, kind)
    pol = solve_hjb(path, kind, g, bounds, params, costs, reward_fn=reward_fn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = _stepwise_hjb(path, kind, g, bounds, params, costs, reward_fn)
    for got, want in zip((pol.controls, pol.values, pol.switches), expected):
        np.testing.assert_array_equal(got, want)  # NaN-aware: NaN switches match NaN
        assert got.tobytes() == want.tobytes()  # and so does the sign of a zero


def test_non_finite_value_refused_at_its_step_without_warnings(bounds_default,
                                                               params_default,
                                                               costs_default):
    # blocks of 5 nodes from t_20 down: nodes 6..10 form one block, whose
    # infinite reward first reaches the value surface at step 10
    g = Grids(n_t=20, n_x=21, n_a=6)
    kind = RewardKind(Variant.ORIGINAL)
    path = zero_path(g, bounds_default, params_default.x0)
    builtin = solver._running_reward(None, kind, g, bounds_default, params_default,
                                     costs_default)
    bad = g.t_nodes()[6:11]

    def blows_up(t, x, a, p):
        return np.where(np.isin(t, bad), np.inf, builtin(t, x, a, p))

    with warnings.catch_warnings(), pytest.raises(NumericalError) as stepwise:
        warnings.simplefilter("ignore", RuntimeWarning)
        _stepwise_hjb(path, kind, g, bounds_default, params_default, costs_default, blows_up)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite value surface at step 10$") as got:
            solve_hjb(path, kind, g, bounds_default, params_default, costs_default,
                      reward_fn=blows_up)
    assert str(got.value) == str(stepwise.value)


def test_tie_break_prefers_small_magnitude_then_smaller():
    g = Grids(n_t=5, n_x=11, n_a=10)
    params = PoolParams(x0=100.0, k0=1e6, phi=0.9, sigma=0.0)
    costs = quadratic_costs(0.0, 0.0, 1.0)
    bounds = ControlBounds(-0.5, 0.5)
    path = zero_path(g, bounds, params.x0)
    flat = lambda t, x, a, p: np.zeros(np.broadcast(x, a).shape)
    pol = solve_hjb(path, RewardKind(Variant.ORIGINAL), g, bounds, params, costs,
                    reward_fn=flat)
    # grid has no zero node; the two smallest-magnitude nodes tie and the
    # smaller (negative) one must win
    a = bounds.grid(10)
    expected = a[4]
    assert expected == pytest.approx(-0.5 / 9)
    np.testing.assert_allclose(pol.controls, expected)
    np.testing.assert_allclose(pol.values, 0.0, atol=1e-15)

    # with a zero node available it wins outright
    g11 = Grids(n_t=5, n_x=11, n_a=11)
    pol0 = solve_hjb(zero_path(g11, bounds, params.x0),
                     RewardKind(Variant.ORIGINAL), g11, bounds, params, costs,
                     reward_fn=flat)
    np.testing.assert_allclose(pol0.controls, 0.0)


def test_exact_tie_refines_to_midpoint(grids_small, params_default, costs_default):
    # symmetric problem on a grid without a zero node: at x = 0 the two
    # smallest-magnitude controls +-da/2 tie exactly, and the parabola through
    # them and their outer neighbours has its vertex at the midpoint, 0
    g = Grids(n_t=grids_small.n_t, n_x=grids_small.n_x, n_a=10)
    bounds = ControlBounds(-0.5, 0.5)
    pol = solve_hjb(zero_path(g, bounds, params_default.x0), RewardKind(Variant.LOWER),
                    g, bounds, params_default, costs_default)
    centre = pol.controls[:, g.n_x // 2]
    assert g.x_nodes()[g.n_x // 2] == 0.0
    np.testing.assert_allclose(centre, 0.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n_t", [1, 6, 20])
def test_reward_fn_sees_each_time_node_once_in_blocks(n_t, bounds_default,
                                                      params_default, costs_default):
    # n_t = 6: seven nodes in blocks of 3, so one block holds a single node
    g = Grids(n_t=n_t, n_x=21, n_a=6)
    kind = RewardKind(Variant.ORIGINAL)
    path = make_path(np.linspace(0.1, 0.3, n_t + 1), g, bounds_default, params_default.x0)
    builtin = solver._running_reward(None, kind, g, bounds_default, params_default,
                                     costs_default)
    seen = []

    def recording(t, x, a, p):
        out = builtin(t, x, a, p)
        seen.append((t.copy(), out))
        return out

    pol = solve_hjb(path, kind, g, bounds_default, params_default, costs_default,
                    reward_fn=recording)
    block = math.ceil(math.sqrt(n_t + 1))
    assert len(seen) == math.ceil((n_t + 1) / block)
    assert all(t.shape[1:] == (1, 1) and 1 <= len(t) <= block for t, _ in seen)
    assert sum(len(t) < block for t, _ in seen) <= 1
    np.testing.assert_array_equal(np.sort(np.concatenate([t.ravel() for t, _ in seen])),
                                  g.t_nodes())
    # the reward is elementwise in t: each block holds the bits of the same
    # rows of the whole lattice, so the blocking moves no number
    x, a = g.x_nodes()[None, :, None], bounds_default.grid(g.n_a)[None, None, :]
    t_all = g.t_nodes()
    lattice = builtin(t_all[:, None, None], x, a, path)
    for t, out in seen:
        rows = np.searchsorted(t_all, t.ravel())
        np.testing.assert_array_equal(out, lattice[rows])
    plain = solve_hjb(path, kind, g, bounds_default, params_default, costs_default)
    np.testing.assert_array_equal(pol.values, plain.values)
    np.testing.assert_array_equal(pol.controls, plain.controls)


def test_solve_hjb_memory_peak_at_default_grid(bounds_default, params_default,
                                               costs_default):
    # the reward is evaluated in blocks of time nodes, never as the
    # (n_t+1, n_x, n_a) lattice (6.4 MiB here); that room holds the
    # particle push's noise block
    g = Grids()
    kind = RewardKind(Variant.ORIGINAL)
    path = zero_path(g, bounds_default, params_default.x0)
    solve_hjb(path, kind, g, bounds_default, params_default, costs_default)  # one-time caches
    tracemalloc.start()
    try:
        solve_hjb(path, kind, g, bounds_default, params_default, costs_default)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_control_at_switch_semantics():
    pol = Policy(t_nodes=np.array([0.0, 0.5, 1.0]),
                 x_nodes=np.array([0.0, 1.0, 2.0]),
                 controls=np.array([[0.0, 0.4, 0.1], [0.2, 0.2, 0.2]]),
                 switches=np.array([[0.25, np.nan], [np.nan, np.nan]]))
    out = pol.control_at(0, np.array([0.2, 0.3, 1.5, -1.0, 2.5]))
    np.testing.assert_allclose(out, [0.0, 0.4, 0.25, 0.0, 0.1])
    # switch-free rows interpolate linearly
    np.testing.assert_allclose(pol.control_at(1, np.array([0.7])), [0.2])

    plain = Policy(t_nodes=pol.t_nodes, x_nodes=pol.x_nodes, controls=pol.controls)
    np.testing.assert_allclose(plain.control_at(0, np.array([0.5])), [0.2])


def test_policy_refuses_non_uniform_or_short_grids():
    # control_at reads x_nodes by uniform index arithmetic
    with pytest.raises(UsageError, match="uniform"):
        Policy(t_nodes=np.array([0.0, 1.0]), x_nodes=np.array([0.0, 1.0, 3.0]),
               controls=np.zeros((1, 3)))
    with pytest.raises(UsageError, match="at least 2"):
        Policy(t_nodes=np.array([0.0, 1.0]), x_nodes=np.array([0.0]),
               controls=np.zeros((1, 1)))


def test_constant_policy_checks_bounds():
    with pytest.raises(UsageError):
        constant_policy(0.9, Grids(n_t=3, n_x=5), B)


def test_propagate_deterministic_drift():
    # sigma = 0 and a ramp a(x) = 0.25 + 0.05 x: x_{k+1} = x_k + a(x_k) dt has
    # the closed form x_k = (x_0 + 5)(1 + 0.05 dt)^k - 5, and the mean path
    # reads a(x_k), so every step's position is pinned
    g = Grids(n_t=10, n_x=61, n_particles=50, seed=11)
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.0)
    ramp = np.tile(0.25 + 0.05 * g.x_nodes(), (g.n_t, 1))
    pol = Policy(t_nodes=g.t_nodes(), x_nodes=g.x_nodes(), controls=ramp)
    path, exit_fraction = propagate(pol, g, B, params, InitialLaw(-1.0, 0.0))
    xk = 4.0 * (1.0 + 0.05 * g.dt) ** np.arange(g.n_t) - 5.0
    np.testing.assert_allclose(path.values[:-1], 0.25 + 0.05 * xk, rtol=0, atol=1e-14)
    assert path.values[-1] == path.values[-2]
    assert exit_fraction == 0.0


def _run_estimator(estimator, pol, g, params, law):
    """Run propagate, evaluate or girsanov_evaluate on the zero path and the f reward."""
    if estimator is propagate:
        return propagate(pol, g, B, params, law)
    return estimator(pol, zero_path(g, B, params.x0), RewardKind(Variant.ORIGINAL), g, B,
                     params, quadratic_costs(), law)


ESTIMATORS = pytest.mark.parametrize("estimator", [propagate, evaluate, girsanov_evaluate],
                                     ids=lambda f: f.__name__)


@ESTIMATORS
def test_estimators_refuse_non_finite_controls(estimator):
    # refused at the step the control turns non-finite, not by a bad index at
    # the next step's lookup nor by a non-finite objective at the end
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.5)
    for n_t, first_bad in ((1, 0), (2, 0), (5, 0), (5, 4)):
        g = Grids(n_t=n_t, n_x=11, n_particles=20)
        controls = np.full((n_t, g.n_x), 0.1)
        controls[first_bad:] = np.nan
        pol = Policy(t_nodes=g.t_nodes(), x_nodes=g.x_nodes(), controls=controls)
        with pytest.raises(NumericalError,
                           match=f"non-finite particle states at step {first_bad}"):
            _run_estimator(estimator, pol, g, params, InitialLaw(0.0, 0.0))


def test_propagate_noise_is_the_per_step_stream(grids_small, bounds_default,
                                                params_default):
    # the block holds, row by row, the normals a per-step draw from the
    # "propagate" stream gives, the starting sample is law0's draw from the
    # "law0" stream, and a passed pair pushes bit for bit like propagate's own
    # draw
    g, seed, law = grids_small, 7, InitialLaw(0.0, 0.5)
    noise = solver.propagate_noise(seed, g, law)
    normals, starts = noise
    assert normals.shape == (g.n_t, g.n_particles) and not normals.flags.writeable
    assert starts.shape == (g.n_particles,) and not starts.flags.writeable
    gen = substream(seed, "propagate")
    for row in normals:
        np.testing.assert_array_equal(row, gen.standard_normal(g.n_particles))
    np.testing.assert_array_equal(starts, law.sample(g.n_particles, substream(seed, "law0")))
    pol = solve_hjb(zero_path(g, bounds_default, params_default.x0),
                    RewardKind(Variant.ORIGINAL), g, bounds_default, params_default,
                    quadratic_costs())
    own, own_exit = propagate(pol, g, bounds_default, params_default, law, seed=seed)
    given, given_exit = propagate(pol, g, bounds_default, params_default, law, seed=seed,
                                  noise=noise)
    np.testing.assert_array_equal(own.values, given.values)
    assert own_exit == given_exit


def test_propagate_refuses_wrong_shape_noise(grids_small, bounds_default, params_default):
    g = grids_small
    pol = constant_policy(0.1, g, bounds_default)
    law = InitialLaw(0.0, 0.0)
    normals, starts = solver.propagate_noise(1, g, law)
    for shape in ((g.n_t - 1, g.n_particles), (g.n_particles, g.n_t), (g.n_t,),
                  (g.n_t, g.n_particles, 1)):
        for noise in ((np.zeros(shape), starts), np.zeros(shape)):
            with pytest.raises(UsageError, match="noise"):
                propagate(pol, g, bounds_default, params_default, law, noise=noise)
    for bad in (starts[:-1], np.zeros((g.n_particles, 1))):
        with pytest.raises(UsageError, match="noise"):
            propagate(pol, g, bounds_default, params_default, law, noise=(normals, bad))


@ESTIMATORS
def test_estimators_warn_when_paths_leave_grid(estimator):
    g = Grids(n_t=10, n_x=31, n_particles=200, seed=12)
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.5)
    pol = constant_policy(0.5, g, B)
    with pytest.warns(UserWarning, match="state-grid edges"):
        _run_estimator(estimator, pol, g, params, InitialLaw(2.9, 0.0))


def test_evaluate_golden_deterministic():
    g = Grids(n_t=20, n_x=61, n_particles=100, seed=9)
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.0)
    costs = quadratic_costs()
    pol = constant_policy(0.0, g, B)
    path = zero_path(g, B, params.x0)
    rep = evaluate(pol, path, RewardKind(Variant.ORIGINAL), g, B, params, costs,
                   InitialLaw(1.3, 0.0))
    assert rep.value == pytest.approx(-1.69, rel=1e-12)
    # identical particles: anything beyond summation dust is a bug
    assert rep.stderr <= 1e-14
    assert rep.n_paths == 100
    assert rep.bias_budget == pytest.approx((g.dt + 0.1**2) * 1.69, rel=1e-12)


def test_evaluate_common_random_numbers(grids_small, bounds_default,
                                        params_default, costs_default, law_point):
    path = zero_path(grids_small, bounds_default, params_default.x0)
    pol = constant_policy(0.2, grids_small, bounds_default)
    law = InitialLaw(0.0, 0.5)
    a = evaluate(pol, path, RewardKind(Variant.ORIGINAL), grids_small,
                 bounds_default, params_default, costs_default, law, seed=4)
    b = evaluate(pol, path, RewardKind(Variant.ORIGINAL), grids_small,
                 bounds_default, params_default, costs_default, law, seed=4)
    assert a == b


def test_paired_kinds_share_noise(grids_small, bounds_default, params_default,
                                  costs_default):
    # same seed, same policy: the f2 - f1 estimate is a pathwise difference
    path = zero_path(grids_small, bounds_default, params_default.x0)
    pol = constant_policy(0.2, grids_small, bounds_default)
    law = InitialLaw(0.0, 0.5)
    v1 = evaluate(pol, path, RewardKind(Variant.LOWER), grids_small,
                  bounds_default, params_default, costs_default, law, seed=4)
    v2 = evaluate(pol, path, RewardKind(Variant.UPPER), grids_small,
                  bounds_default, params_default, costs_default, law, seed=4)
    assert v2.value - v1.value >= 0.0
    assert v2.value - v1.value < 1e-3  # tiny at phi = 0.997, but not noise


def test_girsanov_requires_noise(grids_small, bounds_default, costs_default,
                                 law_point):
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.0)
    path = zero_path(grids_small, bounds_default, params.x0)
    pol = constant_policy(0.1, grids_small, bounds_default)
    with pytest.raises(DomainError):
        girsanov_evaluate(pol, path, RewardKind(Variant.ORIGINAL), grids_small,
                          bounds_default, params, costs_default, law_point)


def test_girsanov_agrees_with_direct(grids_small, bounds_default, costs_default,
                                     law_point):
    # on the narrow box more than 20% of the paths of each estimator clamp;
    # both clamp under one rule, so they still agree within the same band
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.6)
    kind = RewardKind(Variant.ORIGINAL)
    narrow = dataclasses.replace(grids_small, x_min=-0.1, x_max=0.1)
    for g in (grids_small, narrow):
        path = zero_path(g, bounds_default, params.x0)
        pol = solve_hjb(path, kind, g, bounds_default, params, costs_default)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            direct = evaluate(pol, path, kind, g, bounds_default, params,
                              costs_default, law_point, seed=21)
            weak = girsanov_evaluate(pol, path, kind, g, bounds_default, params,
                                     costs_default, law_point, seed=21)
        exit_percents = [float(str(w.message).split("%")[0]) for w in caught
                         if "state-grid edges" in str(w.message)]
        if g is narrow:
            assert len(exit_percents) == 2 and min(exit_percents) > 20.0
            assert min(direct.exit_fraction, weak.exit_fraction) > 0.2
        else:
            assert exit_percents == []
            assert max(direct.exit_fraction, weak.exit_fraction) <= 0.01
        band = 3.0 * np.hypot(direct.stderr, weak.stderr) + direct.bias_budget
        assert abs(direct.value - weak.value) <= band
        assert abs(weak.weight_mean - 1.0) <= 3.0 * weak.weight_stderr


def test_value_surface_consistent_with_monte_carlo(grids_small, bounds_default,
                                                   params_default, costs_default,
                                                   law_point):
    path = zero_path(grids_small, bounds_default, params_default.x0)
    kind = RewardKind(Variant.ORIGINAL)
    pol = solve_hjb(path, kind, grids_small, bounds_default, params_default,
                    costs_default)
    rep = evaluate(pol, path, kind, grids_small, bounds_default, params_default,
                   costs_default, law_point, seed=33)
    anchor = float(np.interp(0.0, pol.x_nodes, pol.values[0]))
    assert abs(rep.value - anchor) <= 3.0 * rep.stderr + 2.0 * rep.bias_budget


def test_fee_free_lower_kind_yields_identical_policy(grids_small, bounds_default,
                                                     costs_default):
    # at phi = 1 the Young term is control-free: same argmax, shifted values
    params = PoolParams(x0=100.0, k0=1e6, phi=1.0, sigma=0.5)
    path = make_path(np.full(21, 0.2), grids_small, bounds_default, params.x0)
    pf = solve_hjb(path, RewardKind(Variant.ORIGINAL), grids_small,
                   bounds_default, params, costs_default)
    p1 = solve_hjb(path, RewardKind(Variant.LOWER), grids_small,
                   bounds_default, params, costs_default)
    np.testing.assert_array_equal(pf.controls, p1.controls)
    # switch positions are built from Q differences, where the constant
    # value shift cancels only up to rounding
    np.testing.assert_allclose(pf.switches, p1.switches, atol=1e-12)
    for k in range(grids_small.n_t + 1):
        level = pf.values[k] - p1.values[k]
        assert np.ptp(level) <= 1e-10
