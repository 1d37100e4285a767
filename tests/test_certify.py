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
from ammfg.grids import ControlBounds, Grids, InitialLaw, make_path, zero_path
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


# Walkers that provably read the same controls share one walk. The cases below
# build a bang-bang lead by hand and place followers' switches against the
# brackets of the lead's particle positions, computed here from its own lone walk.

SPREAD = InitialLaw(0.0, 0.5)  # particles in every switch cell from the first step


def _bang_bang():
    """a_max left of -0.5 and right of 0.5, a_min between; switches at 0.3."""
    x = GRIDS.x_nodes()
    row = np.where(np.abs(x) > 0.5, BOUNDS.a_max, BOUNDS.a_min)
    switches = np.full((GRIDS.n_t, GRIDS.n_x - 1), np.nan)
    switches[:, np.flatnonzero(row[:-1] != row[1:])] = 0.3
    return Policy(t_nodes=GRIDS.t_nodes(), x_nodes=x, controls=np.tile(row, (GRIDS.n_t, 1)),
                  switches=switches)


def _lone_brackets(lead):
    """(lo, hi) per (step, cell): the largest position of a lone evaluate walk below
    the lead's switch in that cell, and the smallest at or above it."""
    lo, hi = np.full(lead.switches.shape, -np.inf), np.full(lead.switches.shape, np.inf)
    control_at = Policy.control_at

    def spy(self, k, x, record=None):
        frac = np.array(x, dtype=float)
        frac = (frac - self.x_nodes[0]) / self._dx
        j = np.minimum(frac.astype(np.int64), len(self.x_nodes) - 2)
        frac -= j
        for cell in np.flatnonzero(np.isfinite(self.switches[k])):
            at, s = frac[j == cell], self.switches[k, cell]
            lo[k, cell] = at[at < s].max(initial=-np.inf)
            hi[k, cell] = at[at >= s].min(initial=np.inf)
        return control_at(self, k, x, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Policy, "control_at", spy)
        evaluate(lead, zero_path(GRIDS, BOUNDS, PARAMS.x0), RewardKind(Variant.ORIGINAL),
                 GRIDS, BOUNDS, PARAMS, COSTS, SPREAD)
    return lo, hi


def _moved(policy, k=None, cell=None, s=None, inside=None):
    """policy with its finite switches at the middles of the brackets inside, then
    switch (k, cell) at s."""
    sw = policy.switches.copy()
    if inside is not None:
        lo, hi = inside
        finite = np.isfinite(sw)
        sw[finite] = ((np.maximum(lo, 0.0) + np.minimum(hi, 1.0)) / 2)[finite]
    if k is not None:
        sw[k, cell] = s
    return dataclasses.replace(policy, switches=sw)


def _first_bracket(bound, start=1):
    """The first (step, cell) from step start on whose bracket end bound is finite."""
    k, cell = np.argwhere(np.isfinite(bound[start:]))[0]
    return int(k) + start, int(cell)


def _case(name):
    """(policies, lookups): walkers for one sharing case and the lookups one
    _evaluate_walkers call makes on them, n_t per walk plus the steps of a
    follower's own walk after it leaves at step k."""
    n_t, lead = GRIDS.n_t, _bang_bang()
    inside = _lone_brackets(lead)
    lo, hi = inside
    if name == "byte-equal":
        copy = dataclasses.replace(lead, controls=lead.controls.copy(),
                                   switches=lead.switches.copy())
        return [lead, copy, lead], n_t
    if name == "inside-brackets":
        follower = _moved(lead, inside=inside)
        assert not np.array_equal(follower.switches, lead.switches, equal_nan=True)
        return [lead, follower], n_t
    if name == "leaves-at-lo":
        k, cell = _first_bracket(lo)
        return [lead, _moved(lead, k, cell, lo[k, cell], inside)], 2 * n_t - k
    if name == "two-leave-as-one-walk":
        # both leave at step k with the same switches from there on, so the
        # second follows the first's new walk
        k, cell = _first_bracket(lo)
        first = _moved(lead, k, cell, lo[k, cell], inside)
        second = _moved(first, 0, np.isfinite(lead.switches[0]), 0.3)  # the lead's row 0
        assert not np.array_equal(first.switches, second.switches, equal_nan=True)
        return [lead, first, second], 2 * n_t - k
    if name == "on-the-hi-edge":
        k, cell = _first_bracket(hi)
        return [lead, _moved(lead, k, cell, hi[k, cell], inside)], n_t
    if name == "past-the-hi-edge":
        k, cell = _first_bracket(hi)
        return [lead, _moved(lead, k, cell, np.nextafter(hi[k, cell], np.inf), inside)], \
            2 * n_t - k
    if name == "other-nan-mask":
        sw = lead.switches.copy()
        sw[:, 0] = 0.5  # a finite switch in a cell whose nodes agree: the same controls
        return [lead, dataclasses.replace(lead, switches=sw)], 2 * n_t
    plain = Policy(t_nodes=GRIDS.t_nodes(), x_nodes=GRIDS.x_nodes(),
                   controls=np.tile(np.linspace(0.0, 0.5, GRIDS.n_x), (n_t, 1)))
    if name == "switchless-equal-bits":
        return [plain, dataclasses.replace(plain, controls=plain.controls.copy())], n_t
    if name == "switchless-one-bit-off":
        nudged = plain.controls.copy()
        nudged[3, 30] = np.nextafter(nudged[3, 30], 1.0)
        return [plain, dataclasses.replace(plain, controls=nudged)], 2 * n_t
    assert name == "signed-zeros"
    zero = constant_policy(0.0, GRIDS, BOUNDS)
    return [zero, dataclasses.replace(zero, controls=-zero.controls)], 2 * n_t


SHARING_CASES = ["byte-equal", "inside-brackets", "leaves-at-lo", "two-leave-as-one-walk",
                 "on-the-hi-edge", "past-the-hi-edge", "other-nan-mask",
                 "switchless-equal-bits", "switchless-one-bit-off", "signed-zeros"]


@pytest.mark.parametrize("name", SHARING_CASES)
def test_walkers_share_a_walk_only_while_they_read_the_same_controls(monkeypatch, name):
    policies, lookups = _case(name)
    path = zero_path(GRIDS, BOUNDS, PARAMS.x0)
    lower, orig = RewardKind(Variant.LOWER), RewardKind(Variant.ORIGINAL)
    kinds = [[lower, orig]] + [[orig]] * (len(policies) - 1)
    lone = [[evaluate(p, path, kind, GRIDS, BOUNDS, PARAMS, COSTS, SPREAD) for kind in ks]
            for p, ks in zip(policies, kinds)]
    calls, control_at = [], Policy.control_at

    def counting(self, k, x, record=None):
        calls.append(k)
        return control_at(self, k, x, record)

    monkeypatch.setattr(Policy, "control_at", counting)
    batch = _evaluate_walkers([(p, path, ks) for p, ks in zip(policies, kinds)],
                              GRIDS, BOUNDS, PARAMS, COSTS, SPREAD)
    # ValueReport equality: value, stderr, n_paths, bias_budget, exit_fraction
    assert batch == lone
    assert len(calls) == lookups
    if name in ("leaves-at-lo", "two-leave-as-one-walk", "past-the-hi-edge"):
        # the follower reads other controls than the lead
        assert batch[1][0] != batch[0][1]


def _evaluate_walk(policies, f):
    """_walk on evaluate's draws for SPREAD, each walker totalling the one callable f."""
    n, dt, seed = GRIDS.n_particles, GRIDS.dt, GRIDS.seed
    gen, x0 = streams.substream(seed, "evaluate"), streams.substream(seed, "evaluate-x0")
    return solver._walk(policies, GRIDS, SPREAD.sample(n, x0), lambda k: gen.standard_normal(n),
                        lambda xs, a, z: xs + a * dt + PARAMS.sigma * np.sqrt(dt) * z,
                        [[f] for _ in policies])


def test_a_follower_that_leaves_walks_on_its_own_arrays():
    lead = _bang_bang()
    inside = _lone_brackets(lead)
    k, cell = _first_bracket(inside[0])
    policies = [lead, _moved(lead, inside=inside),
                _moved(lead, k, cell, inside[0][k, cell], inside)]
    def f(t, xs, a):  # one callable for every walker: one total per walk
        return xs * a

    sums, exits, xs, totals = _evaluate_walk(policies, f)
    # the follower inside its brackets rides the lead's walk: the same arrays
    assert xs[1] is xs[0] and totals[1][0] is totals[0][0]
    # the one that left at step k owns copies, and they moved apart from there
    assert not np.shares_memory(xs[2], xs[0])
    assert not np.shares_memory(totals[2][0], totals[0][0])
    assert np.array_equal(sums[2, :k], sums[0, :k]) and sums[2, k] != sums[0, k]
    for i, policy in enumerate(policies):
        (lone_sums,), (lone_exits,), (lone_xs,), ((lone_total,),) = _evaluate_walk([policy], f)
        assert lone_sums.tobytes() == sums[i].tobytes() and lone_exits == exits[i]
        assert lone_xs.tobytes() == xs[i].tobytes()
        assert lone_total.tobytes() == totals[i][0].tobytes()


def test_a_follower_reading_nan_after_it_leaves_is_refused_at_that_step():
    # the lead never reads node m at step k2: cell m-1 sends every query left,
    # cell m right. The follower leaves at step k1 < k2, and at k2 sends the
    # queries of cell m-1 to node m's NaN.
    lead = _bang_bang()
    inside = _lone_brackets(lead)
    k1, cell = _first_bracket(inside[0])
    k2, m = k1 + 3, GRIDS.n_x // 2 + 1
    controls, sw = lead.controls.copy(), lead.switches.copy()
    controls[k2, m], sw[k2, m - 1], sw[k2, m] = np.nan, 1.0, 0.0
    lead = dataclasses.replace(lead, controls=controls, switches=sw)
    follower = _moved(_moved(lead, k1, cell, inside[0][k1, cell]), k2, m - 1, 0.0)
    path, orig = zero_path(GRIDS, BOUNDS, PARAMS.x0), RewardKind(Variant.ORIGINAL)
    evaluate(lead, path, orig, GRIDS, BOUNDS, PARAMS, COSTS, SPREAD)  # finite
    message = f"^non-finite particle states at step {k2}$"
    with pytest.raises(NumericalError, match=message):
        evaluate(follower, path, orig, GRIDS, BOUNDS, PARAMS, COSTS, SPREAD)
    with pytest.raises(NumericalError, match=message):
        _evaluate_walkers([(lead, path, [orig]), (follower, path, [orig])],
                          GRIDS, BOUNDS, PARAMS, COSTS, SPREAD)


def test_a_walk_looks_up_and_totals_each_reward_once_per_step(monkeypatch):
    lead = _bang_bang()
    inside = _lone_brackets(lead)
    masked = lead.switches.copy()
    masked[:, 0] = 0.5
    path = zero_path(GRIDS, BOUNDS, PARAMS.x0)
    other = make_path(np.full(GRIDS.n_t + 1, 0.2), GRIDS, BOUNDS, PARAMS.x0)
    lower, orig = RewardKind(Variant.LOWER), RewardKind(Variant.ORIGINAL)
    follower = _moved(lead, inside=inside)
    walkers = [(lead, path, [lower, orig]), (dataclasses.replace(lead), path, [orig]),
               (follower, path, [orig]), (follower, other, [orig]),
               (dataclasses.replace(lead, switches=masked), path, [orig])]
    lookups, rewards, bases = [], [], []
    control_at, lam, base = Policy.control_at, solver._lam, solver._base

    def looking(self, k, x, record=None):
        lookups.append(k)
        return control_at(self, k, x, record)

    def rewarding(kind, t, a, path, params, consts):  # each reward's own cost term
        rewards.append(t)
        return lam(kind, t, a, path, params, consts)

    def basing(t, x, path, params, costs):
        bases.append(t)
        return base(t, x, path, params, costs)

    monkeypatch.setattr(Policy, "control_at", looking)
    monkeypatch.setattr(solver, "_lam", rewarding)
    monkeypatch.setattr(solver, "_base", basing)
    _evaluate_walkers(walkers, GRIDS, BOUNDS, PARAMS, COSTS, SPREAD)
    # two walks: the lead's, with its copy and both follower walkers, and the
    # other mask's; (path, f1), (path, f) and (other, f) on the first, (path, f)
    # on the second; the base term once per path a walk carries
    assert len(lookups) == 2 * GRIDS.n_t
    assert len(rewards) == 4 * GRIDS.n_t
    assert len(bases) == 3 * GRIDS.n_t


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


def _small_desk(phi):
    """The default model on a small lattice at fee level phi: its three solves end on
    one path bit for bit at phi = 0.997, and on three paths at phi = 0.9."""
    from ammfg import config
    cfg = config.load_config(None, ["grids.n_t=30", "grids.n_x=61", "grids.n_a=11",
                                    "grids.n_particles=3000", f"pool.phi={phi}"])
    return (config.grids(cfg), config.bounds(cfg), config.pool_params(cfg),
            config.cost_spec(cfg), config.law0(cfg))


@pytest.mark.parametrize("phi, solves", [(0.997, 0), (0.9, 2)])
def test_a_best_response_to_the_original_game_s_path_is_its_last_solve(monkeypatch, phi,
                                                                      solves):
    grids, bounds, params, costs, law0 = _small_desk(phi)
    solve, calls = certify.solve_hjb, []

    def spy(path, *args, **kwargs):
        calls.append(path)
        return solve(path, *args, **kwargs)

    monkeypatch.setattr(certify, "solve_hjb", spy)
    rep = sandwich_report(grids, bounds, params, costs, law0, FixedPointConfig())
    own = rep.eq_orig.path.values.tobytes()
    same = [eq.path.values.tobytes() == own for eq in (rep.eq_lower, rep.eq_upper)]
    assert len(calls) == same.count(False) == solves
    kind_o = rep.eq_orig.kind
    for label, key, eq, reused in (("against_f1_path", "alpha_hat_1", rep.eq_lower, same[0]),
                                   ("against_f2_path", "alpha_hat_2", rep.eq_upper, same[1])):
        br = solve(eq.path, kind_o, grids, bounds, params, costs)
        if reused:  # the skipped solve is the original game's last one, bit for bit
            for name in ("controls", "switches", "values"):
                assert getattr(br, name).tobytes() == getattr(rep.eq_orig.policy, name).tobytes()
        # so the report's values are those of the solved best response
        v_br = evaluate(br, eq.path, kind_o, grids, bounds, params, costs, law0)
        assert rep.candidates[label] == v_br
        held = evaluate(eq.policy, eq.path, kind_o, grids, bounds, params, costs, law0)
        assert rep.direct_bounds[key] == v_br.value - held.value


def test_an_evaluation_keys_its_rewards_by_path_bytes(monkeypatch):
    # three path objects with the same bytes: their five (path, kind) pairs
    # are three rewards, totalled once per step and shared by their riders
    policy = constant_policy(0.2, GRIDS, BOUNDS)
    path = make_path(np.linspace(0.1, 0.3, GRIDS.n_t + 1), GRIDS, BOUNDS, PARAMS.x0)
    copies = [make_path(path.values.copy(), GRIDS, BOUNDS, PARAMS.x0) for _ in range(2)]
    lower, upper, orig = (RewardKind(v) for v in (Variant.LOWER, Variant.UPPER,
                                                  Variant.ORIGINAL))
    walkers = [(policy, path, [lower, orig]), (policy, copies[0], [upper, orig]),
               (policy, copies[1], [orig])]
    rewards, bases, lam, base = [], [], solver._lam, solver._base

    def rewarding(kind, t, a, path, params, consts):  # each reward's own cost term
        rewards.append(kind)
        return lam(kind, t, a, path, params, consts)

    def basing(t, x, path, params, costs):
        bases.append(t)
        return base(t, x, path, params, costs)

    monkeypatch.setattr(solver, "_lam", rewarding)
    monkeypatch.setattr(solver, "_base", basing)
    reports = _evaluate_walkers(walkers, GRIDS, BOUNDS, PARAMS, COSTS, LAW0)
    assert len(rewards) == 3 * GRIDS.n_t
    assert len(bases) == GRIDS.n_t  # the three kinds share one base term per step
    assert reports[0][1] is reports[1][1] is reports[2][0]
    monkeypatch.undo()
    for (pol, p, kinds), got in zip(walkers, reports):
        assert got == [evaluate(pol, p, kind, GRIDS, BOUNDS, PARAMS, COSTS, LAW0)
                       for kind in kinds]
