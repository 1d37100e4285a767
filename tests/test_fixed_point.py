import numpy as np
import pytest

from ammfg import (DomainError, FixedPointConfig, Grids, InitialLaw,
                   PoolParams, RewardKind, UsageError, Variant, fixed_point, make_path,
                   solve_mfg, zero_path)

FP = FixedPointConfig(damping=0.5, tol=1e-3, max_iters=60)


def test_fixed_point_config_validation():
    with pytest.raises(DomainError):
        FixedPointConfig(damping=0.0)
    with pytest.raises(DomainError):
        FixedPointConfig(damping=1.5)
    with pytest.raises(DomainError):
        FixedPointConfig(tol=0.0)
    with pytest.raises(DomainError):
        FixedPointConfig(max_iters=0)


def test_residual_is_sup_distance(grids_small, bounds_default):
    a = zero_path(grids_small, bounds_default, 100.0)
    vals = np.zeros(21)
    vals[7] = 0.25
    b = make_path(vals, grids_small, bounds_default, 100.0)
    assert a.sup_distance(b) == 0.25
    with pytest.raises(UsageError):
        a.sup_distance(zero_path(Grids(n_t=5, n_x=11), bounds_default, 100.0))


@pytest.mark.parametrize("tag", ["f", "f1", "f2"])
def test_solve_mfg_converges_small_scale(tag, grids_small, bounds_default,
                                         params_default, costs_default,
                                         law_point):
    eq = solve_mfg(RewardKind(tag), grids_small, bounds_default,
                   params_default, costs_default, law_point, FP)
    assert eq.converged
    assert eq.iterations <= FP.max_iters
    assert eq.residuals[-1] <= FP.tol
    assert eq.post_residual <= FP.tol
    assert eq.path.values.shape == (21,)
    assert np.all(eq.path.values >= 0.0) and np.all(eq.path.values <= 0.5)
    assert eq.value.n_paths == grids_small.n_particles
    assert np.isfinite(eq.value.value)
    assert 0.0 <= eq.exit_fraction <= 1.0


def test_solve_mfg_deterministic(grids_small, bounds_default, params_default,
                                 costs_default, law_point):
    kind = RewardKind(Variant.LOWER)
    eq1 = solve_mfg(kind, grids_small, bounds_default, params_default,
                    costs_default, law_point, FP, seed=42)
    eq2 = solve_mfg(kind, grids_small, bounds_default, params_default,
                    costs_default, law_point, FP, seed=42)
    np.testing.assert_array_equal(eq1.path.values, eq2.path.values)
    assert eq1.value == eq2.value
    assert eq1.residuals == eq2.residuals

    eq3 = solve_mfg(kind, grids_small, bounds_default, params_default,
                    costs_default, law_point, FP, seed=43)
    assert not np.array_equal(eq1.path.values, eq3.path.values)


def test_solve_mfg_rejects_bad_init(grids_small, bounds_default, params_default,
                                    costs_default, law_point, monkeypatch):
    # an init of another length, and one of the right length on another
    # horizon, are refused before any push
    pushes = []
    monkeypatch.setattr(fixed_point, "propagate", lambda *a, **k: pushes.append(a))
    for other in (Grids(n_t=5, n_x=11), Grids(n_t=grids_small.n_t, n_x=11, horizon=2.0)):
        bad = zero_path(other, bounds_default, params_default.x0)
        with pytest.raises(UsageError, match="does not match the time grid"):
            solve_mfg(RewardKind(Variant.ORIGINAL), grids_small, bounds_default,
                      params_default, costs_default, law_point, FP, init=bad)
    assert pushes == []


def test_solve_mfg_warm_start_stays_converged(grids_small, bounds_default,
                                              params_default, costs_default,
                                              law_point):
    kind = RewardKind(Variant.ORIGINAL)
    eq = solve_mfg(kind, grids_small, bounds_default, params_default,
                   costs_default, law_point, FP)
    warm = solve_mfg(kind, grids_small, bounds_default, params_default,
                     costs_default, law_point, FP, init=eq.path)
    assert warm.converged
    assert warm.iterations <= eq.iterations
    assert warm.path.sup_distance(eq.path) <= 2.0 * FP.tol


def test_solve_mfg_reports_non_convergence(grids_small, bounds_default,
                                           params_default, costs_default,
                                           law_point):
    strict = FixedPointConfig(damping=0.5, tol=1e-14, max_iters=3)
    eq = solve_mfg(RewardKind(Variant.ORIGINAL), grids_small, bounds_default,
                   params_default, costs_default, law_point, strict)
    assert not eq.converged
    assert eq.iterations == 3
    assert len(eq.residuals) == 3
    # the last iterate and its value are still reported
    assert np.isfinite(eq.value.value)


def test_solve_mfg_custom_reward(grids_small, bounds_default, params_default,
                                 costs_default, law_point):
    # inventory penalty only: the best response liquidates toward zero, and
    # with one-sided bounds only the negative-inventory side can act, so the
    # equilibrium mean rate is nonnegative
    def penalty_only(t, x, a, path):
        return -0.5 * np.square(np.asarray(x)) + 0.0 * np.asarray(a)

    eq = solve_mfg(RewardKind(Variant.ORIGINAL), grids_small, bounds_default,
                   params_default, costs_default, law_point, FP,
                   reward_fn=penalty_only)
    assert eq.converged
    assert np.all(eq.path.values >= 0.0)
    # deep short inventory trades at full rate; long inventory cannot help itself
    assert eq.policy.controls[0, 0] == 0.5
    assert eq.policy.controls[0, -1] == 0.0
