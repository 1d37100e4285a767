import dataclasses
import math

import numpy as np
import pytest

from ammfg import solver, streams
from ammfg.certify import (SWEEP_COLUMNS, epsilon_nash_certificate, phi_sweep,
                           sandwich_report)
from ammfg.errors import AdmissibilityError, UsageError
from ammfg.fixed_point import FixedPointConfig
from ammfg.grids import ControlBounds, Grids, InitialLaw
from ammfg.pool import PoolParams
from ammfg.rewards import quadratic_costs

GRIDS = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=2000, n_quad=5, seed=101)
BOUNDS = ControlBounds(0.0, 0.5)
PARAMS = PoolParams(100.0, 1e6, 0.9, sigma=0.5)
COSTS = quadratic_costs(0.5, 0.5, 1.0)
LAW0 = InitialLaw(0.0, 0.0)
FP = FixedPointConfig(damping=0.5, tol=1e-3, max_iters=60)


@pytest.fixture(scope="module")
def report():
    return sandwich_report(GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP)


def test_report_echoes_inputs(report):
    assert report.phi == 0.9
    assert report.spread == pytest.approx(0.005555555555555556, rel=1e-14)
    assert report.young_eps == 1.0
    assert report.denom_exp == 2
    assert report.converged_f1 and report.converged_f2
    assert report.converged_f is True


def test_gap_identities(report):
    assert report.gap == report.v_f2.value - report.v_f1.value
    assert report.gap_upper == report.v_f2.value - report.v_f.value
    assert report.gap_lower == report.v_f.value - report.v_f1.value
    assert report.gap_se == pytest.approx(
        math.hypot(report.v_f1.stderr, report.v_f2.stderr), rel=1e-14)


def test_bracket_ordering_within_noise(report):
    lo = math.hypot(report.v_f1.stderr, report.v_f.stderr)
    hi = math.hypot(report.v_f.stderr, report.v_f2.stderr)
    assert report.v_f1.value <= report.v_f.value + 3.0 * lo
    assert report.v_f.value <= report.v_f2.value + 3.0 * hi
    assert report.gap >= -3.0 * report.gap_se


def test_candidate_bookkeeping(report):
    assert set(report.candidates) == {"against_f1_path", "against_f2_path",
                                      "own_fixed_point"}
    assert report.v_f_source in report.candidates
    best = max(r.value for r in report.candidates.values())
    assert report.v_f.value == best
    assert report.candidates[report.v_f_source] is report.v_f
    assert set(report.direct_bounds) == {"alpha_hat_1", "alpha_hat_2"}
    assert report.controls_certified == ["alpha_hat_1", "alpha_hat_2"]
    # best-responding to your own equilibrium path can only help
    for v in report.direct_bounds.values():
        assert v >= -1e-12


def test_equilibria_attached(report):
    assert report.eq_lower.converged and report.eq_upper.converged
    assert report.eq_orig is not None
    assert report.eq_lower.path.values.shape == (GRIDS.n_t + 1,)


def test_to_dict_shape(report):
    d = report.to_dict()
    assert set(d) == {"phi", "spread_factor", "young_eps", "denom_exp",
                      "V_f1", "V_f", "V_f2", "V_f_source", "V_f_candidates",
                      "converged_f1", "converged_f2", "converged_f",
                      "gap", "gap_se", "gap_upper", "gap_upper_se",
                      "gap_lower", "gap_lower_se", "direct_bounds",
                      "controls_certified"}
    assert set(d["V_f1"]) == {"V", "stderr", "n_paths", "bias_budget"}
    assert d["V_f1"]["V"] == report.v_f1.value
    assert set(d["V_f_candidates"]) == set(report.candidates)


def test_negative_controls_refused():
    with pytest.raises(AdmissibilityError, match="a_min"):
        sandwich_report(GRIDS, ControlBounds(-0.1, 0.5), PARAMS, COSTS, LAW0, FP)


def test_certificate_epsilon(report):
    cert = epsilon_nash_certificate(report)
    assert cert.epsilon == report.gap + 3.0 * report.gap_se
    assert cert.gap == report.gap and cert.gap_se == report.gap_se
    assert set(cert.direct_within_epsilon) == {"alpha_hat_1", "alpha_hat_2"}
    d = cert.to_dict()
    assert d["epsilon"] == cert.epsilon


def test_certificate_refuses_partial(report):
    broken = dataclasses.replace(report, converged_f1=False)
    with pytest.raises(UsageError, match="f1"):
        epsilon_nash_certificate(broken)
    with pytest.raises(UsageError, match="non-finite"):
        epsilon_nash_certificate(dataclasses.replace(report, gap=float("nan")))


def _rows_equal(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    for k in a:
        va, vb = a[k], b[k]
        if isinstance(va, float) and isinstance(vb, float):
            if not (va == vb or (math.isnan(va) and math.isnan(vb))):
                return False
        elif va != vb:
            return False
    return True


def test_phi_sweep_order_and_workers():
    phis = [0.95, 0.9]
    seq = phi_sweep(phis, GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=1)
    par = phi_sweep(phis, GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=2)
    assert [r["phi"] for r in seq] == phis
    assert len(seq) == len(par) == 2
    for rs, rp in zip(seq, par):
        assert _rows_equal(rs, rp)
    for row in seq:
        assert set(SWEEP_COLUMNS) <= set(row)
        assert row["error"] == ""
        assert row["converged_f1"] and row["converged_f2"]
        assert np.isfinite(row["gap"])


def test_one_propagate_noise_draw_per_sandwich_and_sweep(monkeypatch):
    # every Picard push of a report, and of every fee level of a sweep, reads
    # one shared block of normals and one shared starting sample
    keys = []

    def counting(seed, *labels):
        keys.append(labels)
        return streams.substream(seed, *labels)

    monkeypatch.setattr(solver, "substream", counting)
    rep = sandwich_report(GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP)
    assert keys.count(("propagate",)) == keys.count(("law0",)) == 1
    assert rep.eq_lower.iterations + rep.eq_upper.iterations > 2
    keys.clear()
    phi_sweep([0.95, 0.9], GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=2)
    assert keys.count(("propagate",)) == keys.count(("law0",)) == 1


def test_phi_sweep_records_failure():
    rows = phi_sweep([2.0, 0.9], GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP)
    bad, good = rows
    assert bad["phi"] == 2.0
    assert bad["error"].startswith("DomainError")
    assert math.isnan(bad["V_f1"]) and bad["converged_f1"] is False
    assert good["error"] == "" and np.isfinite(good["V_f1"])


def test_phi_sweep_young_eps_fn():
    # young_eps reaches the rows: two scales give two different sandwiches
    fixed = phi_sweep([0.9], GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP,
                      young_eps=2.5)
    assert not _rows_equal(
        fixed[0],
        phi_sweep([0.9], GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP,
                  young_eps=1.0)[0])
