"""Acceptance suite at the full desk-scale configuration.

Each test is one externally checkable property of the shipped numerics, run
at the default resolution (n_t=100, n_x=201, n_a=41, 10^4 particles). The
terminal summary hook in conftest.py prints one line per criterion.
"""
import dataclasses
import time

import numpy as np
import pytest

from ammfg.certify import epsilon_nash_certificate, sandwich_report
from ammfg.fixed_point import FixedPointConfig, solve_mfg
from ammfg.grids import ControlBounds, Grids, InitialLaw, make_path
from ammfg.nplayer import SimConfig, deviation_gain, impact_aware_reward
from ammfg.pool import (PoolParams, PoolState, buy_swap, execute_swap,
                        price_after_aggregate, spot_price, spread_factor)
from ammfg.rewards import (RewardKind, Variant, bound_constant,
                           check_growth_bound, quadratic_costs, reward)
from ammfg.solver import evaluate, girsanov_evaluate, solve_hjb
from policies import constant_policy

SEED = 20240814
GRIDS = Grids()
BOUNDS = ControlBounds(0.0, 0.5)
PARAMS = PoolParams(100.0, 1e6, 0.997, sigma=0.5)
COSTS = quadratic_costs(0.5, 0.5, 1.0)
LAW0 = InitialLaw(0.0, 0.0)
FP = FixedPointConfig(damping=0.5, tol=1e-3, max_iters=200)


def with_phi(phi: float) -> PoolParams:
    return dataclasses.replace(PARAMS, phi=phi)


@pytest.fixture(scope="module")
def sandwich_default():
    start = time.perf_counter()
    report = sandwich_report(GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, seed=SEED)
    return report, time.perf_counter() - start


def test_criterion_01_spread_factor():
    phi = 0.997
    direct = (1.0 + phi**2) / (2.0 * phi) - 1.0
    assert abs(spread_factor(phi) - 4.51e-6) <= 0.01 * 4.51e-6
    assert abs(direct - 4.51e-6) <= 0.01 * 4.51e-6


def test_criterion_02_sandwich_ordering(sandwich_default):
    report, elapsed = sandwich_default
    assert report.converged_f1 and report.converged_f2
    lo = np.hypot(report.v_f1.stderr, report.v_f.stderr)
    hi = np.hypot(report.v_f.stderr, report.v_f2.stderr)
    assert report.v_f1.value <= report.v_f.value + 3.0 * lo
    assert report.v_f.value <= report.v_f2.value + 3.0 * hi
    assert elapsed < 120.0


def test_criterion_03_fee_free_recovery():
    # at phi=1 with first-power denominators the transaction term is zero,
    # so the equilibrium must match a from-scratch drift-minus-inventory run
    kind = RewardKind(Variant.ORIGINAL, young_eps=1.0, denom_exp=1)
    params = with_phi(1.0)
    eq_lib = solve_mfg(kind, GRIDS, BOUNDS, params, COSTS, LAW0, FP, seed=SEED)

    def frictionless(t, x, a, path):
        m = path.value_at(t)
        c = path.cumulative_at(t)
        gamma = m * 2.0 * params.k0 / (params.x0 - c) ** 3
        return (np.asarray(x) * gamma - 0.5 * np.square(np.asarray(x))
                + 0.0 * np.asarray(a))

    eq_ref = solve_mfg(kind, GRIDS, BOUNDS, params, COSTS, LAW0, FP, seed=SEED,
                       reward_fn=frictionless)
    assert eq_lib.converged and eq_ref.converged
    assert eq_lib.path.sup_distance(eq_ref.path) <= 1e-3


def test_criterion_04_gap_upper_envelope(sandwich_default):
    reports = {0.997: sandwich_default[0]}
    for phi in (0.9, 0.99, 0.9999):
        reports[phi] = sandwich_report(GRIDS, BOUNDS, with_phi(phi), COSTS,
                                       LAW0, FP, seed=SEED)
    T, M, e = GRIDS.horizon, BOUNDS.magnitude, 2
    eps0 = PARAMS.x0 - T * M
    const = M * PARAMS.k0 * (eps0 ** (-2 * e) + (PARAMS.x0 + T * M) ** (-2 * e)) * (1.0 + T)
    ordered = [reports[p] for p in (0.9, 0.99, 0.997, 0.9999)]
    for rep in ordered:
        assert rep.gap_upper <= const * spread_factor(rep.phi) + 3.0 * rep.gap_upper_se
    for wide, tight in zip(ordered, ordered[1:]):
        band = 3.0 * np.hypot(wide.gap_upper_se, tight.gap_upper_se)
        assert tight.gap_upper <= wide.gap_upper + band


def test_criterion_05a_gap_at_phi_one_is_quadrature_residual():
    rep = sandwich_report(GRIDS, BOUNDS, with_phi(1.0), COSTS, LAW0, FP, seed=SEED)
    path = rep.eq_lower.path
    d = PARAMS.k0 / (PARAMS.x0 - path.cumulative) ** 4
    residual = 0.5 * np.sum(d[:-1] ** 2) * GRIDS.dt
    assert abs(rep.gap - residual) <= 3.0 * rep.gap_se


def test_criterion_05b_scaled_young_gap_vanishes():
    reports = []
    for phi in (0.9, 0.99, 0.9999):
        reports.append(sandwich_report(
            GRIDS, BOUNDS, with_phi(phi), COSTS, LAW0, FP,
            young_eps=1.0 / spread_factor(phi), seed=SEED))
    for wide, tight in zip(reports, reports[1:]):
        band = 3.0 * np.hypot(wide.gap_se, tight.gap_se)
        assert tight.gap <= wide.gap + band
    last = reports[-1]
    assert abs(last.gap) <= 3.0 * last.gap_se


def test_criterion_06_certificate_consistency(sandwich_default):
    report, _ = sandwich_default
    cert = epsilon_nash_certificate(report)
    assert cert.epsilon == report.gap + 3.0 * report.gap_se
    assert set(cert.direct_within_epsilon) == {"alpha_hat_1", "alpha_hat_2"}
    assert all(cert.direct_within_epsilon.values())


def test_criterion_07_strong_vs_reweighted_values():
    grids = Grids(horizon=1.0, n_t=20, x_min=-6.0, x_max=6.0, n_x=121, n_a=11,
                  n_particles=4000, seed=SEED)
    rng = np.random.default_rng(SEED)
    for i in range(20):
        sigma = float(rng.uniform(0.2, 1.0))
        phi = float(rng.uniform(0.9, 1.0))
        level = float(rng.uniform(0.0, 0.5))
        law = InitialLaw(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.0, 0.5)))
        params = PoolParams(100.0, 1e6, phi, sigma=sigma)
        kind = RewardKind([Variant.ORIGINAL, Variant.LOWER][i % 2])
        path = make_path(np.full(grids.n_t + 1, level), grids, BOUNDS, params.x0)
        if i % 2 == 0:
            policy = constant_policy(level, grids, BOUNDS)
        else:
            policy = solve_hjb(path, kind, grids, BOUNDS, params, COSTS)
        direct = evaluate(policy, path, kind, grids, BOUNDS, params, COSTS,
                          law, seed=SEED + i)
        weak = girsanov_evaluate(policy, path, kind, grids, BOUNDS, params,
                                 COSTS, law, seed=SEED + i)
        band = 3.0 * float(np.hypot(direct.stderr, weak.stderr))
        assert abs(direct.value - weak.value) <= band, f"config {i}"


def test_criterion_08_swap_mechanics():
    rng = np.random.default_rng(SEED + 1)
    total = 0
    for combo in range(20):
        x = float(rng.uniform(50.0, 200.0))
        y = float(rng.uniform(5e3, 2e4))
        phi = 1.0 if combo % 5 == 0 else float(rng.uniform(0.5, 1.0))
        params = PoolParams(x0=x, k0=x * y, phi=phi)
        state = PoolState(x, y)
        deltas = rng.uniform(1e-4, 0.05, 50) * x
        agg = price_after_aggregate(params, deltas)
        spots = np.array([spot_price(execute_swap(state, float(d), phi).new_state)
                          for d in deltas])
        np.testing.assert_allclose(agg, spots, rtol=1e-12)

        for i, s in enumerate(rng.uniform(1e-4, 0.02, 5000)):
            k = state.k
            if i % 2 == 0:
                res = execute_swap(state, s * state.x, phi)
                leg = (state.x + phi * s * state.x) * (state.y - res.delta_out)
            else:
                res = buy_swap(state, s * state.x, phi)
                leg = (state.x - s * state.x) * (state.y + phi * (res.new_state.y - state.y))
            assert abs(leg / k - 1.0) <= 1e-12
            growth = res.new_state.k - k
            if phi < 1.0:
                assert growth > 0.0
            else:
                assert abs(growth) <= 1e-12 * k
            state = res.new_state
            total += 1
    assert total == 100_000


def test_criterion_09_control_curvature():
    rng = np.random.default_rng(SEED + 2)
    tq = rng.uniform(0.0, GRIDS.horizon, 1000)
    xq = rng.uniform(GRIDS.x_min, GRIDS.x_max, 1000)
    da = 0.25
    # second differences across a in {0, 0.25, 0.5}; the separable lower
    # reward is exactly quadratic, the upper one exactly affine. Checking the
    # quadratic coefficient at phi=0.997 would need ~1e-11 resolution against
    # O(1) reward values, beyond float64, so the curvature side stops at 0.9.
    for phi in (0.5, 0.9):
        params = with_phi(phi)
        path = make_path(rng.uniform(0.0, 0.5, GRIDS.n_t + 1), GRIDS, BOUNDS,
                         params.x0)
        lo = reward(RewardKind(Variant.LOWER), tq, xq, 0.0, path, params, COSTS)
        ce = reward(RewardKind(Variant.LOWER), tq, xq, 0.25, path, params, COSTS)
        hi = reward(RewardKind(Variant.LOWER), tq, xq, 0.5, path, params, COSTS)
        second = (lo - 2.0 * ce + hi) / da**2
        np.testing.assert_allclose(second, -spread_factor(phi) ** 2, rtol=1e-6)
    for phi in (0.5, 0.9, 0.997):
        params = with_phi(phi)
        path = make_path(rng.uniform(0.0, 0.5, GRIDS.n_t + 1), GRIDS, BOUNDS,
                         params.x0)
        consts = bound_constant(params, COSTS, BOUNDS, GRIDS.horizon, 2)
        lo = reward(RewardKind(Variant.UPPER), tq, xq, 0.0, path, params, COSTS, consts)
        ce = reward(RewardKind(Variant.UPPER), tq, xq, 0.25, path, params, COSTS, consts)
        hi = reward(RewardKind(Variant.UPPER), tq, xq, 0.5, path, params, COSTS, consts)
        assert np.max(np.abs((lo - 2.0 * ce + hi) / da**2)) <= 1e-10


def test_criterion_10_growth_envelope():
    for tag in ("f", "f1", "f2"):
        rep = check_growth_bound(RewardKind(tag, 1.0, 2), 100_000, SEED,
                                 grids=GRIDS, bounds=BOUNDS, params=PARAMS,
                                 costs=COSTS)
        assert rep.violations == 0, tag
        assert rep.max_ratio <= 1.0
    consts = bound_constant(PARAMS, COSTS, BOUNDS, GRIDS.horizon, 2)
    corrupted = dataclasses.replace(consts, bound=0.5 * consts.bound)
    rep = check_growth_bound(RewardKind(Variant.ORIGINAL), 100_000, SEED,
                             grids=GRIDS, bounds=BOUNDS, params=PARAMS,
                             costs=COSTS, consts=corrupted)
    assert rep.violations > 0


def test_criterion_11_deviation_gain_trend(sandwich_default):
    eq = sandwich_default[0].eq_orig
    assert eq is not None and eq.converged
    kind = RewardKind(Variant.ORIGINAL)
    start = time.perf_counter()
    gains = []
    for n in (10, 50, 250):
        fn = impact_aware_reward(n, PARAMS, COSTS, kind)
        deviant = solve_hjb(eq.path, kind, GRIDS, BOUNDS, PARAMS, COSTS,
                            reward_fn=fn)
        gains.append(deviation_gain(eq.policy, deviant,
                                    SimConfig(n_traders=n, n_reps=5000),
                                    GRIDS, BOUNDS, PARAMS, COSTS, LAW0,
                                    seed=SEED))
    elapsed = time.perf_counter() - start
    for small, large in zip(gains, gains[1:]):
        band = 1.96 * np.hypot(small.stderr, large.stderr)
        assert large.gain <= small.gain + band
    assert elapsed < 300.0
