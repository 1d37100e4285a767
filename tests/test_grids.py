import numpy as np
import pytest

from ammfg import (AdmissibilityError, ControlBounds, Grids, InitialLaw,
                   UsageError, make_path, zero_path)
from ammfg.grids import reserve_floor
from ammfg.streams import substream


def test_grids_nodes_and_dt():
    g = Grids(horizon=2.0, n_t=8, x_min=-1.0, x_max=3.0, n_x=5)
    assert g.dt == 0.25
    t = g.t_nodes()
    assert t.shape == (9,)
    assert t[0] == 0.0 and t[-1] == 2.0
    x = g.x_nodes()
    np.testing.assert_allclose(x, [-1.0, 0.0, 1.0, 2.0, 3.0])


def test_grids_validation_collects_everything():
    with pytest.raises(UsageError) as err:
        Grids(horizon=-1.0, n_t=0, x_min=2.0, x_max=1.0, n_x=1, n_quad=2)
    msg = str(err.value)
    for needle in ("horizon", "n_t", "x_min", "n_x", "n_quad"):
        assert needle in msg


def test_control_bounds_magnitude_and_grid():
    b = ControlBounds(-0.25, 0.5)
    assert b.magnitude == 0.5
    a = b.grid(4)
    np.testing.assert_allclose(a, [-0.25, 0.0, 0.25, 0.5])
    # singleton grid pins at the origin clamped into the interval
    np.testing.assert_allclose(ControlBounds(0.0, 0.5).grid(1), [0.0])
    np.testing.assert_allclose(ControlBounds(-1.0, 1.0).grid(1), [0.0])


def test_control_bounds_validation():
    with pytest.raises(AdmissibilityError):
        ControlBounds(0.5, 0.1)
    with pytest.raises(AdmissibilityError):
        ControlBounds(0.1, 0.5)  # interval must contain zero
    with pytest.raises(AdmissibilityError):
        ControlBounds(-0.5, -0.1)


def test_initial_law_point_mass_and_gaussian():
    rng = substream(3, "law-test")
    point = InitialLaw(1.5, 0.0).sample(100, rng)
    assert np.all(point == 1.5)
    draws = InitialLaw(2.0, 0.5).sample(200_000, substream(3, "law-test"))
    assert abs(draws.mean() - 2.0) < 0.01
    assert abs(draws.std() - 0.5) < 0.01
    with pytest.raises(UsageError):
        InitialLaw(0.0, -1.0)


def test_admissible_floor():
    assert reserve_floor(ControlBounds(0.0, 0.5), 100.0, 1.0) == 99.5
    with pytest.raises(AdmissibilityError, match=r"2.0 not < x0/T = 1.0: .* deplete"):
        reserve_floor(ControlBounds(-2.0, 2.0), 1.0, 1.0)


def test_make_path_trapezoid_cumulative():
    g = Grids(n_t=4, n_x=11)
    b = ControlBounds(0.0, 0.5)
    path = make_path(np.full(5, 0.4), g, b, 100.0)
    np.testing.assert_allclose(path.cumulative, [0.0, 0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(path.reserve, [100.0, 99.9, 99.8, 99.7, 99.6])
    assert reserve_floor(b, 100.0, g.horizon) == 99.5
    # a tent of values integrates to the trapezoid of that tent
    tent = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    path = make_path(tent, g, b, 100.0)
    np.testing.assert_allclose(path.cumulative,
                               [0.0, 0.0625, 0.125, 0.1875, 0.25])


def test_make_path_rejects_out_of_bounds_node():
    g = Grids(n_t=4, n_x=11)
    b = ControlBounds(0.0, 0.5)
    vals = np.array([0.0, 0.0, 0.7, 0.0, 0.0])
    with pytest.raises(AdmissibilityError) as err:
        make_path(vals, g, b, 100.0)
    assert "node 2" in str(err.value)


def test_make_path_rejects_wrong_shape_and_inadmissible_bounds():
    g = Grids(n_t=4, n_x=11)
    with pytest.raises(UsageError):
        make_path(np.zeros(4), g, ControlBounds(0.0, 0.5), 100.0)
    with pytest.raises(AdmissibilityError, match="150.0 not < x0/T = 100.0: .* deplete"):
        make_path(np.zeros(5), g, ControlBounds(-150.0, 150.0), 100.0)


def test_make_path_full_throttle_reaches_floor_exactly():
    # reserve ends exactly at eps0; equality is admissible
    g = Grids(n_t=10, n_x=11)
    b = ControlBounds(0.0, 0.5)
    path = make_path(np.full(11, 0.5), g, b, 100.0)
    assert path.reserve[-1] == pytest.approx(99.5, abs=1e-12)


def test_path_interpolation_and_rows():
    g = Grids(n_t=2, n_x=11, horizon=1.0)
    path = make_path(np.array([0.0, 0.4, 0.0]), g, ControlBounds(0.0, 0.5), 100.0)
    assert path.value_at(0.25) == pytest.approx(0.2)
    assert path.cumulative_at(1.0) == pytest.approx(0.2)
    rows = list(path.rows())
    assert len(rows) == 3
    assert rows[0] == (0.0, 0.0, 0.0, 100.0)


def test_sup_distance():
    g = Grids(n_t=4, n_x=11)
    b = ControlBounds(0.0, 0.5)
    p1 = make_path(np.zeros(5), g, b, 100.0)
    p2 = make_path(np.array([0.0, 0.1, 0.0, 0.3, 0.0]), g, b, 100.0)
    assert p1.sup_distance(p2) == pytest.approx(0.3)
    other = make_path(np.zeros(6), Grids(n_t=5, n_x=11), b, 100.0)
    with pytest.raises(UsageError):
        p1.sup_distance(other)


def test_zero_path(grids_small, bounds_default):
    path = zero_path(grids_small, bounds_default, 100.0)
    assert np.all(path.values == 0.0)
    np.testing.assert_allclose(path.reserve, 100.0)
