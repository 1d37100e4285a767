"""Reward family: golden values, the sandwich ordering, and the growth audit.

Golden numbers come from exact rational arithmetic frozen as float64. The
reference points use a constant crowd rate m = 0.3 at phi = 0.9 (cumulative
flow 0.15 at t = 0.5) and the zero-flow pool at the default fee.
"""
import dataclasses

import numpy as np
import pytest

from ammfg import (AdmissibilityError, ControlBounds, CostSpec, DomainError, Grids,
                   PoolParams, RewardKind, UsageError, Variant, bound_constant,
                   check_cost_growth, check_growth_bound, make_path, quadratic_costs,
                   reward, terminal_reward, zero_path)
from ammfg import rewards
from ammfg.grids import reserve_floor
from ammfg.rewards import (BoundConstants, d_factor, drift_kernel, gamma, lambda_lower,
                           lambda_orig, lambda_upper)

G10 = Grids(n_t=10, n_x=11)
B = ControlBounds(0.0, 0.5)


def const_path(m, grids=G10, bounds=None, x0=100.0):
    bounds = bounds or ControlBounds(min(0.0, m), max(0.5, m))
    return make_path(np.full(grids.n_t + 1, m), grids, bounds, x0)


def test_drift_kernel_and_gamma_goldens():
    p05 = PoolParams(x0=100.0, k0=1e6, phi=0.5)
    path = const_path(1.0, bounds=ControlBounds(0.0, 1.0))
    assert gamma(1.0, path, p05) == pytest.approx(1.5355703496422317, rel=1e-13)

    p1 = PoolParams(x0=100.0, k0=1e6, phi=1.0)
    assert gamma(0.0, path, p1) == pytest.approx(2.0, rel=1e-13)

    p09 = PoolParams(x0=100.0, k0=1e6, phi=0.9)
    path3 = const_path(0.3)
    assert drift_kernel(0.5, path3, p09) == pytest.approx(1.908153268652692, rel=1e-13)
    assert gamma(0.5, path3, p09) == pytest.approx(0.5724459805958076, rel=1e-13)


def test_d_factor_goldens():
    p09 = PoolParams(x0=100.0, k0=1e6, phi=0.9)
    path3 = const_path(0.3)
    k2 = RewardKind(Variant.ORIGINAL, denom_exp=2)
    k1 = RewardKind(Variant.ORIGINAL, denom_exp=1)
    assert d_factor(0.5, path3, p09, k2) == pytest.approx(
        0.010057203756141317, rel=1e-13)
    assert d_factor(0.5, path3, p09, k1) == pytest.approx(
        100.2856109127392, rel=1e-13)
    # zero flow: the e=1 factor is the spot price, the e=2 one its square / k0
    zero = zero_path(G10, B, 100.0)
    assert d_factor(0.3, zero, p09, k1) == pytest.approx(100.0, rel=1e-14)
    assert d_factor(0.3, zero, p09, k2) == pytest.approx(0.01, rel=1e-14)


def test_lambda_goldens():
    p997 = PoolParams(x0=100.0, k0=1e6, phi=0.997)
    zero = zero_path(G10, B, 100.0)
    k2 = RewardKind(Variant.ORIGINAL, denom_exp=2)
    assert lambda_orig(1.0, 0.0, zero, p997, k2) == pytest.approx(
        -4.513540621865597e-08, rel=1e-13)
    kl = RewardKind(Variant.LOWER, young_eps=1.0, denom_exp=2)
    assert lambda_lower(0.0, 0.0, zero, p997, kl) == pytest.approx(-5e-05, rel=1e-13)
    ku = RewardKind(Variant.UPPER, denom_exp=2)
    consts = bound_constant(p997, quadratic_costs(), ControlBounds(-1.0, 1.0), 1.0)
    assert lambda_upper(1.0, p997, consts, ku) == pytest.approx(
        -4.337423821637586e-08, rel=1e-13)

    p09 = PoolParams(x0=100.0, k0=1e6, phi=0.9)
    path3 = const_path(0.3)
    assert lambda_orig(0.25, 0.5, path3, p09, k2) == pytest.approx(
        -1.3968338550196274e-05, rel=1e-13)
    kl2 = RewardKind(Variant.LOWER, young_eps=2.0, denom_exp=2)
    assert lambda_lower(0.25, 0.5, path3, p09, kl2) == pytest.approx(
        -2.7215849193814767e-05, rel=1e-13)
    consts9 = bound_constant(p09, quadratic_costs(), B, 1.0)
    assert lambda_upper(0.25, p09, consts9, ku) == pytest.approx(
        -1.36145489125181e-05, rel=1e-13)


def test_reward_golden_point():
    p09 = PoolParams(x0=100.0, k0=1e6, phi=0.9)
    path3 = const_path(0.3)
    k = RewardKind(Variant.ORIGINAL, denom_exp=2)
    val = reward(k, 0.5, 1.2, 0.25, path3, p09, quadratic_costs())
    assert val == pytest.approx(-0.03307879162358102, rel=1e-12)


def test_reward_broadcasts():
    p = PoolParams(x0=100.0, k0=1e6, phi=0.9)
    path = const_path(0.3)
    k = RewardKind(Variant.LOWER)
    t = np.linspace(0.0, 1.0, 4)[:, None]
    x = np.linspace(-1.0, 1.0, 5)[None, :]
    out = reward(k, t, x, 0.25, path, p, quadratic_costs())
    assert out.shape == (4, 5)


def test_reward_upper_requires_constants():
    p = PoolParams(x0=100.0, k0=1e6, phi=0.9)
    with pytest.raises(UsageError):
        reward(RewardKind(Variant.UPPER), 0.0, 0.0, 0.1, const_path(0.3), p,
               quadratic_costs())


def test_sandwich_ordering_sampled():
    """f1 <= f <= f2 for nonnegative controls, over random flows and points."""
    rng = np.random.default_rng(31)
    costs = quadratic_costs()
    for phi in (0.5, 0.9, 0.997, 1.0):
        p = PoolParams(x0=100.0, k0=1e6, phi=phi)
        for e in (1, 2):
            vals = rng.uniform(0.0, 0.5, G10.n_t + 1)
            path = make_path(vals, G10, B, 100.0)
            consts = bound_constant(p, costs, B, G10.horizon, e)
            t = rng.uniform(0.0, 1.0, 400)
            x = rng.uniform(-3.0, 3.0, 400)
            a = rng.uniform(0.0, 0.5, 400)
            f1 = reward(RewardKind(Variant.LOWER, denom_exp=e), t, x, a, path, p, costs)
            f = reward(RewardKind(Variant.ORIGINAL, denom_exp=e), t, x, a, path, p, costs)
            f2 = reward(RewardKind(Variant.UPPER, denom_exp=e), t, x, a, path, p,
                        costs, consts)
            assert np.max(f1 - f) <= 1e-12
            assert np.max(f - f2) <= 1e-12


def test_young_split_tight_exactly_when_scaled_cost_matches_depth():
    # f - f1 = (1/2)(sqrt(eps) a c - D / sqrt(eps))^2 >= 0, zero at a c eps = D
    p = PoolParams(x0=100.0, k0=1e6, phi=0.9)
    path = zero_path(G10, B, 100.0)
    costs = quadratic_costs()
    c = (1.0 - 0.9) ** 2 / (2.0 * 0.9)
    d = 0.01  # zero-flow depth factor at e=2
    eps = d / (0.25 * c)  # makes a = 0.25 the contact point
    ko = RewardKind(Variant.ORIGINAL, young_eps=eps)
    kl = RewardKind(Variant.LOWER, young_eps=eps)
    a = np.linspace(0.0, 0.5, 101)
    diff = (reward(ko, 0.2, 0.7, a, path, p, costs)
            - reward(kl, 0.2, 0.7, a, path, p, costs))
    assert np.min(diff) >= -1e-15
    assert diff[50] == pytest.approx(0.0, abs=1e-12)


def test_phi_one_collapses_the_bracket():
    p = PoolParams(x0=100.0, k0=1e6, phi=1.0)
    path = const_path(0.4)
    costs = quadratic_costs()
    consts = bound_constant(p, costs, B, 1.0)
    t = np.linspace(0.0, 1.0, 7)
    a = np.linspace(0.0, 0.5, 7)
    f = reward(RewardKind(Variant.ORIGINAL), t, 1.0, a, path, p, costs)
    f2 = reward(RewardKind(Variant.UPPER), t, 1.0, a, path, p, costs, consts)
    np.testing.assert_array_equal(f, f2)
    # the lower reward differs by the control-free D^2 term only
    f1 = reward(RewardKind(Variant.LOWER), t, 1.0, a, path, p, costs)
    kind = RewardKind(Variant.LOWER)
    shift = 0.5 * d_factor(t, path, p, kind) ** 2
    np.testing.assert_allclose(f - f1, shift, rtol=1e-9)


def test_terminal_reward():
    costs = quadratic_costs(terminal=2.0)
    np.testing.assert_allclose(terminal_reward(np.array([-1.0, 0.0, 3.0]), costs),
                               [-2.0, 0.0, -18.0])


def test_reward_kind_tags_and_validation():
    assert RewardKind("f").variant is Variant.ORIGINAL
    assert RewardKind("f1").tag == "f1"
    assert RewardKind("f2", young_eps=3.0, denom_exp=1).denom_exp == 1
    with pytest.raises(UsageError):
        RewardKind("f3")
    with pytest.raises(DomainError):
        RewardKind(Variant.LOWER, young_eps=0.0)
    with pytest.raises(DomainError):
        RewardKind(Variant.LOWER, denom_exp=3)


def test_cost_spec_and_growth_check():
    costs = quadratic_costs()
    assert check_cost_growth(costs, Grids()) <= 1.0
    steep = quadratic_costs(5.0, 5.0, 1.0)
    with pytest.raises(DomainError):
        check_cost_growth(steep, Grids())
    with pytest.raises(DomainError):
        CostSpec(h=costs.h, l=costs.l, c1=0.0)


def test_bound_constant_goldens():
    costs = quadratic_costs()
    p997 = PoolParams(x0=100.0, k0=1e6, phi=0.997)
    consts = bound_constant(p997, costs, ControlBounds(-1.0, 1.0), 1.0)
    assert reserve_floor(ControlBounds(-1.0, 1.0), p997.x0, 1.0) == 99.0
    assert consts.bound == pytest.approx(2.102861118484138, rel=1e-13)
    default = bound_constant(p997, costs, B, 1.0)
    assert reserve_floor(B, p997.x0, 1.0) == 99.5
    assert default.bound == pytest.approx(1.0253537846615786, rel=1e-13)
    with pytest.raises(AdmissibilityError, match="200.0 not < x0/T = 100.0: .* deplete"):
        bound_constant(p997, costs, ControlBounds(-200.0, 200.0), 1.0)


@pytest.mark.parametrize("tag", ["f", "f1", "f2"])
def test_growth_bound_holds_on_samples(tag, grids_small, bounds_default,
                                       params_default, costs_default):
    kind = RewardKind(tag)
    rep = check_growth_bound(kind, 20_000, 77, grids=grids_small,
                             bounds=bounds_default, params=params_default,
                             costs=costs_default)
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0
    assert rep.n_samples == 20_000


@pytest.mark.parametrize("n_samples", [0, -5])
def test_growth_bound_refuses_an_empty_audit(n_samples, grids_small, bounds_default,
                                             params_default, costs_default):
    with pytest.raises(UsageError, match=f"n_samples must be >= 1, got {n_samples}"):
        check_growth_bound(RewardKind("f"), n_samples, 77, grids=grids_small,
                           bounds=bounds_default, params=params_default, costs=costs_default)


@pytest.mark.parametrize("n_samples", [1, 255, 512, 4097, 16_383, 16_384, 100_001])
def test_growth_bound_draws_every_sample_in_non_empty_batches(
        n_samples, monkeypatch, grids_small, bounds_default, params_default, costs_default):
    batches, real = [], rewards.reward
    monkeypatch.setattr(rewards, "reward",
                        lambda kind, t, *args: batches.append(t.size) or real(kind, t, *args))
    rep = check_growth_bound(RewardKind("f"), n_samples, 77, grids=grids_small,
                             bounds=bounds_default, params=params_default, costs=costs_default)
    assert rep.n_samples == sum(batches) == n_samples and min(batches) > 0


def test_growth_bound_negative_control(grids_small, bounds_default,
                                       params_default, costs_default):
    kind = RewardKind("f")
    good = bound_constant(params_default, costs_default, bounds_default,
                          grids_small.horizon)
    corrupted = dataclasses.replace(good, bound=0.5 * good.bound)
    rep = check_growth_bound(kind, 20_000, 77, grids=grids_small,
                             bounds=bounds_default, params=params_default,
                             costs=costs_default, consts=corrupted)
    assert rep.violations > 0
    assert rep.max_ratio > 1.0


def test_bound_constants_fields():
    consts = BoundConstants(m_bound=0.5, bound=1.1, horizon=1.0)
    assert consts.horizon == 1.0
    # the floor has one statement, reserve_floor; the constants carry no copy
    assert [f.name for f in dataclasses.fields(BoundConstants)] == ["m_bound", "bound", "horizon"]
    assert reserve_floor(ControlBounds(0.0, consts.m_bound), 100.0, consts.horizon) == 99.5
