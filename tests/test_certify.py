import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import ammfg
from ammfg import _fork, certify, solver, streams
from ammfg.certify import (SWEEP_COLUMNS, epsilon_nash_certificate, phi_sweep,
                           sandwich_report)
from ammfg.errors import AdmissibilityError, NumericalError, UsageError
from ammfg.fixed_point import FixedPointConfig, solve_mfg
from ammfg.grids import ControlBounds, Grids, InitialLaw, zero_path
from ammfg.pool import PoolParams
from ammfg.rewards import RewardKind, Variant, quadratic_costs
from ammfg.solver import Policy, _evaluate_walkers, evaluate, solve_hjb
from policies import constant_policy

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


def test_one_propagate_noise_draw_per_sandwich_and_sweep(monkeypatch, tmp_path):
    # every Picard push of a report, and of every fee level of a sweep, reads
    # one shared block of normals and one shared starting sample; every
    # evaluation of a report reads one stream of normals and one starting
    # sample, drawn once per report (per fee level in a sweep) and per solve.
    # The draws are counted in a file: a sweep's forked workers inherit the
    # patch, and their appends reach it as the parent's do
    log = tmp_path / "keys.jsonl"

    def counting(seed, *labels):
        with open(log, "a") as fh:
            fh.write(json.dumps(labels) + "\n")
        return streams.substream(seed, *labels)

    def draws(*labels):
        keys = [tuple(json.loads(line)) for line in log.read_text().splitlines()]
        log.unlink()
        return [keys.count((label,)) for label in labels]

    monkeypatch.setattr(solver, "substream", counting)
    rep = sandwich_report(GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP)
    assert draws("propagate", "law0", "evaluate", "evaluate-x0") == [1, 1, 1, 1]
    assert rep.eq_lower.iterations + rep.eq_upper.iterations > 2
    phi_sweep([0.95, 0.9], GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=2)
    assert draws("propagate", "law0", "evaluate", "evaluate-x0") == [1, 1, 2, 2]
    solve_mfg(RewardKind(Variant.LOWER), GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP)
    assert draws("propagate", "law0", "evaluate", "evaluate-x0") == [1, 1, 1, 1]


def _level_pids(monkeypatch, path):
    """Patch sandwich_report to append the pid of the process that runs each level to path."""
    report = certify.sandwich_report

    def recording(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return report(*args, **kwargs)

    monkeypatch.setattr(certify, "sandwich_report", recording)
    return lambda: [int(pid) for pid in path.read_text().split()]


def test_phi_sweep_runs_its_levels_in_forked_workers(monkeypatch, tmp_path):
    pids = _level_pids(monkeypatch, tmp_path / "pids")
    phis = [0.95, 0.9, 0.99]
    rows = phi_sweep(phis, GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=2)
    seen = pids()
    assert len(seen) == len(phis)
    assert os.getpid() not in seen and 1 <= len(set(seen)) <= 2
    assert [r["phi"] for r in rows] == phis
    # every worker has been joined by the time the sweep returns
    assert multiprocessing.active_children() == []
    seq = phi_sweep(phis, GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=1)
    assert pids()[len(phis):] == [os.getpid()] * len(phis)
    assert all(_rows_equal(a, b) for a, b in zip(rows, seq))


def test_phi_sweep_records_failure_in_a_worker():
    bad, good = phi_sweep([2.0, 0.9], GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=2)
    assert bad["phi"] == 2.0 and bad["error"].startswith("DomainError")
    assert math.isnan(bad["V_f1"]) and bad["converged_f1"] is False
    assert good["error"] == "" and np.isfinite(good["V_f1"])
    assert multiprocessing.active_children() == []


def test_phi_sweep_runs_in_process_without_fork(monkeypatch, tmp_path):
    pids = _level_pids(monkeypatch, tmp_path / "pids")
    phis = [0.95, 0.9]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    rows = phi_sweep(phis, GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=2)
    assert pids() == [os.getpid()] * len(phis)
    monkeypatch.undo()
    seq = phi_sweep(phis, GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP, workers=1)
    assert all(_rows_equal(a, b) for a, b in zip(rows, seq))


def test_import_leaves_multiprocessing_out():
    # the sweep imports it only when it forks: it costs every `import ammfg` ~5 ms
    src = os.path.dirname(os.path.dirname(ammfg.__file__))
    code = "import sys, ammfg, ammfg.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert done.stdout.strip() == "False"


def _walkers(grids, kinds_per_walker):
    """Constant-control walkers on the zero path, one per entry of kinds_per_walker."""
    path = zero_path(grids, BOUNDS, PARAMS.x0)
    return [(constant_policy(0.1 * (i + 1), grids, BOUNDS), path, kinds)
            for i, kinds in enumerate(kinds_per_walker)]


def test_batch_evaluation_holds_one_row_of_normals():
    # a report's five walkers in lockstep hold their states and totals, never
    # an (n_t, n_particles) block of draws
    grids = dataclasses.replace(GRIDS, n_t=200, n_particles=1000)
    lower, orig = RewardKind(Variant.LOWER), RewardKind(Variant.ORIGINAL)
    walkers = _walkers(grids, [[lower, orig], [lower, orig], [orig], [orig], [orig]])
    # the first call imports numpy.random's lazily loaded parts: measure the second
    _evaluate_walkers(walkers, grids, BOUNDS, PARAMS, COSTS, LAW0)
    tracemalloc.start()
    try:
        _evaluate_walkers(walkers, grids, BOUNDS, PARAMS, COSTS, LAW0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * grids.n_t * grids.n_particles


PARITY_CASES = [
    *(pytest.param(GRIDS, dataclasses.replace(PARAMS, phi=phi), LAW0, seed,
                   id=f"seed{seed}-phi{phi}")
      for seed in (20240814, 271828) for phi in (0.9, 0.997)),
    pytest.param(Grids(), dataclasses.replace(PARAMS, phi=0.997), LAW0, 20240814, id="desk"),
    pytest.param(dataclasses.replace(GRIDS, n_t=1), PARAMS, LAW0, 101, id="n_t=1"),
    pytest.param(dataclasses.replace(GRIDS, n_particles=1), PARAMS, LAW0, 101,
                 id="n_particles=1"),
    pytest.param(GRIDS, dataclasses.replace(PARAMS, sigma=0.0), LAW0, 101, id="sigma=0"),
    pytest.param(GRIDS, dataclasses.replace(PARAMS, phi=1.0), LAW0, 101, id="phi=1"),
    pytest.param(GRIDS, PARAMS, InitialLaw(0.0, 0.3), 101, id="gaussian-law0"),
]


@pytest.mark.parametrize("grids, params, law0, seed", PARITY_CASES)
def test_report_values_are_bitwise_those_of_lone_evaluate_calls(grids, params, law0, seed):
    rep = sandwich_report(grids, BOUNDS, params, COSTS, law0, FP, seed=seed)
    kind_o = rep.eq_orig.kind

    def lone(policy, eq, kind):
        return evaluate(policy, eq.path, kind, grids, BOUNDS, params, COSTS, law0, seed=seed)

    # ValueReport equality: value, stderr, n_paths, bias_budget, exit_fraction
    assert rep.v_f1 == lone(rep.eq_lower.policy, rep.eq_lower, rep.eq_lower.kind)
    assert rep.v_f2 == lone(rep.eq_upper.policy, rep.eq_upper, rep.eq_upper.kind)
    assert rep.eq_orig.value == lone(rep.eq_orig.policy, rep.eq_orig, kind_o)
    for label, key, eq in (("against_f1_path", "alpha_hat_1", rep.eq_lower),
                           ("against_f2_path", "alpha_hat_2", rep.eq_upper)):
        v_br = lone(solve_hjb(eq.path, kind_o, grids, BOUNDS, params, COSTS), eq, kind_o)
        assert rep.candidates[label] == v_br
        held = lone(eq.policy, eq, kind_o)
        assert rep.direct_bounds[key] == v_br.value - held.value
    if grids.n_particles == 1:
        assert rep.v_f1.stderr == rep.v_f.stderr == 0.0
    # a lone solve is the report's first one, bit for bit
    alone = solve_mfg(rep.eq_lower.kind, grids, BOUNDS, params, COSTS, law0, FP, seed=seed)
    assert np.array_equal(alone.path.values, rep.eq_lower.path.values)
    assert alone.residuals == rep.eq_lower.residuals
    assert alone.value == rep.v_f1


@pytest.mark.parametrize("grids, params, law0, seed", PARITY_CASES)
def test_reports_and_solves_are_bitwise_the_same_with_or_without_a_twin(
        monkeypatch, grids, params, law0, seed):
    # a twin walks half of every walked push; the other half and every result
    # stay bitwise those of one process walking them all
    fork, forks = os.fork, []

    def counting():
        forks.append(os.getpid())
        return fork()

    def run(cores):
        monkeypatch.setattr(_fork, "_usable_cores", lambda: cores)
        # the twin walks every push, even where the parent would kill it
        # for not paying on these small grids
        monkeypatch.setattr(_fork.twin, "_pace", lambda self, own: None)
        rep = sandwich_report(grids, BOUNDS, params, COSTS, law0, FP, seed=seed)
        return rep, solve_mfg(rep.eq_lower.kind, grids, BOUNDS, params, COSTS, law0, FP,
                              seed=seed)

    monkeypatch.setattr(os, "fork", counting)
    (rep, lone), (rep1, lone1) = run(2), run(1)
    # a report and a lone solve open one twin each, unless there is nothing to split
    assert len(forks) == (2 if grids.n_particles > 128 else 0)
    assert json.dumps(rep.to_dict()) == json.dumps(rep1.to_dict())
    for a, b in ((rep.eq_lower, rep1.eq_lower), (rep.eq_upper, rep1.eq_upper),
                 (rep.eq_orig, rep1.eq_orig), (lone, lone1)):
        for arrays in (lambda eq: (eq.path.values, eq.policy.controls, eq.policy.switches),):
            assert [x.tobytes() for x in arrays(a)] == [x.tobytes() for x in arrays(b)]
        assert (a.residuals, a.post_residual, a.exit_fraction, a.converged) == \
            (b.residuals, b.post_residual, b.exit_fraction, b.converged)
    assert lone.value == lone1.value


def test_batch_refuses_a_non_finite_objective_or_control_of_any_walker():
    orig = RewardKind(Variant.ORIGINAL)
    walkers = _walkers(GRIDS, [[orig], [orig, orig]])  # controls 0.1 and 0.2
    (good, path, _), (second, _, _) = walkers

    def infinite_above(t, x, a, path):  # non-finite on the second walker only
        return np.where(a > 0.15, np.inf, 0.0)

    with pytest.raises(NumericalError, match="^non-finite path objective in evaluate$"):
        _evaluate_walkers(walkers, GRIDS, BOUNDS, PARAMS, COSTS, LAW0, reward_fn=infinite_above)
    with pytest.raises(NumericalError, match="^non-finite path objective in evaluate$"):
        evaluate(second, path, orig, GRIDS, BOUNDS, PARAMS, COSTS, LAW0,
                 reward_fn=infinite_above)
    controls = good.controls.copy()
    controls[3] = np.nan
    bad = Policy(t_nodes=good.t_nodes, x_nodes=good.x_nodes, controls=controls)
    with pytest.raises(NumericalError, match="^non-finite particle states at step 3$"):
        _evaluate_walkers([(good, path, [orig]), (bad, path, [orig])],
                          GRIDS, BOUNDS, PARAMS, COSTS, LAW0)


def test_phi_sweep_records_an_evaluation_failure(monkeypatch):
    # only the evaluation's terminal rewards (one per particle) turn NaN
    terminal = solver.terminal_reward

    def spoiled(x, costs):
        out = terminal(x, costs)
        return out * np.nan if np.size(x) == GRIDS.n_particles else out

    monkeypatch.setattr(solver, "terminal_reward", spoiled)
    [row] = phi_sweep([0.9], GRIDS, BOUNDS, PARAMS, COSTS, LAW0, FP)
    assert row["error"] == "NumericalError: non-finite path objective in evaluate"
    assert math.isnan(row["V_f1"]) and row["converged_f1"] is False


def test_every_evaluation_walk_over_the_exit_threshold_warns():
    narrow = dataclasses.replace(GRIDS, x_min=-0.1, x_max=0.1, n_x=21)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = sandwich_report(narrow, BOUNDS, PARAMS, COSTS, LAW0, FP)
    message = "100.0% of particles hit the state-grid edges; widen [x_min, x_max]"
    assert all(str(w.message) == message for w in caught)
    # every push warns (replayed ones too), then each of the five evaluation
    # walks once, at the report's caller
    pushes = sum(eq.iterations + 1 for eq in (rep.eq_lower, rep.eq_upper, rep.eq_orig))
    assert len(caught) == pushes + 5
    assert [w.filename for w in caught[pushes:]] == [__file__] * 5
    assert rep.v_f1.exit_fraction == rep.v_f.exit_fraction == 1.0


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
