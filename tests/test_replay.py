"""Push replay: a logged push is returned without a walk only where that is exact.

propagate(..., _log=log), where log is a sandwich report's private push log
holding its noise pair, returns a logged push's mean path and exit fraction
when the new policy provably reads the same control for every particle at
every step: same controls and NaN switch mask, and every finite
switch inside the bracket of particle positions the logged walk saw in its
cell. Each replay here is compared bit for bit with a fresh walk, and a
switch moved past one logged position is shown to be walked instead.
"""
import dataclasses
import functools
import inspect

import numpy as np
import pytest

from ammfg import (ControlBounds, Grids, InitialLaw, Policy, PoolParams, RewardKind, Variant,
                   UsageError, certify, make_path, propagate, quadratic_costs, solve_hjb, solver)
from ammfg.certify import sandwich_report
from ammfg.fixed_point import FixedPointConfig, solve_mfg
from ammfg.solver import propagate_noise
from policies import constant_policy

G = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
          n_particles=2000, n_quad=5, seed=101)
B = ControlBounds(0.0, 0.5)
LAW = InitialLaw(0.0, 0.5)
COSTS = quadratic_costs(0.5, 0.5, 1.0)
FP = FixedPointConfig(damping=0.5, tol=1e-3, max_iters=60)


def _params(phi=0.997):
    return PoolParams(100.0, 1e6, phi, sigma=0.5)


@functools.cache
def _noise(law):
    return propagate_noise(G.seed, G, law)


def _new_log(law=LAW):
    """An empty push log on the cached noise pair of ``law``."""
    return {"noise": _noise(law)}


def _push(pol, params, log=None, law=LAW):
    path, exit_fraction = propagate(pol, G, B, params, law, noise=_noise(law), _log=log)
    return path.values.tobytes(), exit_fraction


def _logged(log):
    return [records for key, records in log.items() if key != "noise"]


def _records(log):
    return sum(len(records) for records in _logged(log))


def _only_record(log):
    (records,) = _logged(log)
    (record,) = records
    return record


def _with_switches(pol, finite_values):
    sw = pol.switches.copy()
    sw[~np.isnan(sw)] = finite_values
    return dataclasses.replace(pol, switches=sw)


def _two_switch_policy():
    """Bang-bang rows with two switch cells: a_max left of -0.5 and right of 0.5."""
    x = G.x_nodes()
    row = np.where(np.abs(x) > 0.5, B.a_max, B.a_min)
    switches = np.full((G.n_t, G.n_x - 1), np.nan)
    switches[:, np.flatnonzero(row[:-1] != row[1:])] = 0.3
    return Policy(t_nodes=G.t_nodes(), x_nodes=x, controls=np.tile(row, (G.n_t, 1)),
                  switches=switches)


def _solved_policy(phi, variant):
    path = make_path(np.full(G.n_t + 1, 0.2), G, B, 100.0)
    return solve_hjb(path, RewardKind(variant), G, B, _params(phi), COSTS)


CASES = [pytest.param(phi, variant, id=f"{phi}-{variant.name}")
         for phi in (0.9, 0.997, 1.0) for variant in Variant]


@pytest.mark.parametrize("phi, variant", CASES + [pytest.param(0.997, None, id="two-switch")])
def test_replay_is_a_fresh_walk_bit_for_bit(phi, variant):
    pol = _two_switch_policy() if variant is None else _solved_policy(phi, variant)
    assert np.isfinite(pol.switches).any()
    params, log = _params(phi), _new_log()
    assert _push(pol, params, log) == _push(pol, params)
    _, _, lo, hi = _only_record(log)
    # every finite switch moved to the middle of its logged bracket
    moved = _with_switches(pol, (np.maximum(lo, 0.0) + np.minimum(hi, 1.0)) / 2)
    assert not np.array_equal(moved.switches, pol.switches, equal_nan=True)
    replayed = _push(moved, params, log)
    assert _records(log) == 1  # replayed, not walked
    assert replayed == _push(moved, params)


def test_switchless_policies_replay_on_equal_bits_only():
    x, t = G.x_nodes(), G.t_nodes()
    pol = Policy(t_nodes=t, x_nodes=x,
                 controls=np.clip(0.25 - 0.07 * x[None, :] + 0.1 * t[:-1, None], 0.0, 0.5))
    params, log = _params(), _new_log()
    _push(pol, params, log)
    twin = dataclasses.replace(pol, controls=pol.controls.copy())
    assert _push(twin, params, log) == _push(twin, params)
    assert _records(log) == 1
    nudged = pol.controls.copy()
    nudged[3, 30] = np.nextafter(nudged[3, 30], 1.0)
    _push(dataclasses.replace(pol, controls=nudged), params, log)
    assert _records(log) == 2


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("make", [lambda: _solved_policy(0.997, Variant.ORIGINAL),
                                  _two_switch_policy], ids=["solved", "two-switch"])
def test_a_switch_moved_past_a_logged_position_is_walked(side, make):
    pol, params, log = make(), _params(), _new_log()
    first = _push(pol, params, log)
    _, _, lo, hi = _only_record(log)
    bound = lo if side == "lo" else hi
    cell = np.flatnonzero(np.isfinite(bound))[0]
    s = pol.switches[~np.isnan(pol.switches)]
    # at lo the particle there now reads the right node; just past hi, the left
    s[cell] = lo[cell] if side == "lo" else np.nextafter(hi[cell], np.inf)
    moved = _with_switches(pol, s)
    walked = _push(moved, params, log)
    assert _records(log) == 2
    assert walked != first
    assert walked == _push(moved, params)


def test_a_particle_on_its_switch_bounds_the_bracket_from_above():
    # every particle of a point mass starts at one position in one cell; a switch
    # exactly there sends them to the right node, one just above it to the left
    x = G.x_nodes()
    u = (0.0 - x[0]) / (x[1] - x[0])  # as Policy.control_at places x = 0
    cell = int(u)
    controls = np.tile(np.where(np.arange(G.n_x) > cell, B.a_max, B.a_min), (G.n_t, 1))
    switches = np.full((G.n_t, G.n_x - 1), np.nan)
    switches[0, cell] = u - cell
    pol = Policy(t_nodes=G.t_nodes(), x_nodes=x, controls=controls, switches=switches)
    point = InitialLaw(0.0, 0.0)
    params, log = _params(), _new_log(point)
    first = _push(pol, params, log, law=point)
    moved = _with_switches(pol, [np.nextafter(u - cell, 1.0)])
    walked = _push(moved, params, log, law=point)
    assert _records(log) == 2 and walked != first
    assert walked == _push(moved, params, law=point)


def test_a_moved_switch_mask_is_walked():
    # the same number of finite switches in other cells: cell c1 falls back to
    # the ramp, and the new finite cell, whose nodes agree, changes nothing
    pol, params, log = _two_switch_policy(), _params(), _new_log()
    first = _push(pol, params, log)
    sw = pol.switches.copy()
    c1 = np.flatnonzero(np.isfinite(sw[0]))[0]
    sw[:, c1], sw[:, 0] = np.nan, 0.3
    moved = dataclasses.replace(pol, switches=sw)
    walked = _push(moved, params, log)
    assert _records(log) == 2 and walked != first
    assert walked == _push(moved, params)


def test_a_replay_warns_as_its_walk_did():
    edge = InitialLaw(2.9, 0.0)
    pol, params, log = constant_policy(0.5, G, B), _params(), _new_log(edge)
    with pytest.warns(UserWarning, match="state-grid edges") as walked:
        first = _push(pol, params, log, law=edge)
    with pytest.warns(UserWarning, match="state-grid edges") as replayed:
        again = _push(pol, params, log, law=edge)
    assert _records(log) == 1 and first == again and first[1] > 0.01
    assert [str(w.message) for w in walked] == [str(w.message) for w in replayed]


def test_a_push_on_a_log_reads_the_log_s_pair():
    # the log holds its noise pair, so a pair passed beside it is never read
    pol, params, log = _two_switch_policy(), _params(), _new_log()
    other = propagate_noise(G.seed + 1, G, LAW)
    path, exit_fraction = propagate(pol, G, B, params, LAW, noise=other, _log=log)
    assert (path.values.tobytes(), exit_fraction) == _push(pol, params)
    on_other, _ = propagate(pol, G, B, params, LAW, noise=other)
    assert path.values.tobytes() != on_other.values.tobytes()
    assert _records(log) == 1


def test_the_push_log_is_private():
    # a report's draws and push log reach its solves through one private
    # argument; the public signatures keep only the lone-call keywords
    assert list(inspect.signature(propagate).parameters) == [
        "policy", "grids", "bounds", "params", "law0", "seed", "noise", "_log"]
    assert list(inspect.signature(solve_mfg).parameters) == [
        "kind", "grids", "bounds", "params", "costs", "law0", "fp", "seed", "init",
        "reward_fn", "_log"]


def test_a_report_refuses_a_wrong_shaped_noise_pair():
    normals, starts = _noise(LAW)
    for noise in ((normals[:-1], starts), (normals, starts[:-1]), (normals.T, starts),
                  normals):
        with pytest.raises(UsageError, match="propagate noise has shapes"):
            sandwich_report(G, B, _params(), COSTS, LAW, FP, noise=noise)


def test_lone_solves_and_pushes_record_nothing(monkeypatch):
    records = []
    control_at = solver.Policy.control_at

    def spy(self, k, x, record=None):
        records.append(record)
        return control_at(self, k, x, record)

    monkeypatch.setattr(solver.Policy, "control_at", spy)
    params = _params()
    eq = solve_mfg(RewardKind(Variant.ORIGINAL), G, B, params, COSTS, LAW, FP)
    propagate(eq.policy, G, B, params, LAW)
    assert records and all(r is None for r in records)
    records.clear()
    sandwich_report(G, B, params, COSTS, LAW, FP)
    assert any(r is not None for r in records)


@pytest.mark.parametrize("phi", [0.9, 0.997])
def test_a_report_replays_to_the_report_it_would_walk(monkeypatch, phi):
    pushes = []
    replay_or_walk = solver._replay_or_walk

    def counting(log, policy, walk):
        pushes.append(replay_or_walk(log, policy, walk))
        return pushes[-1]

    monkeypatch.setattr(solver, "_replay_or_walk", counting)
    replayed = sandwich_report(G, B, _params(phi), COSTS, LAW, FP)
    logs = {id(m) for m, _ in pushes}  # a replay hands back the logged array itself
    assert len(logs) < len(pushes)
    monkeypatch.setattr(solver, "_replay_or_walk",
                        lambda log, policy, walk: walk())
    walked = sandwich_report(G, B, _params(phi), COSTS, LAW, FP)
    assert replayed.to_dict() == walked.to_dict()
    for eq in ("eq_lower", "eq_upper", "eq_orig"):
        a, b = getattr(replayed, eq), getattr(walked, eq)
        assert a.path.values.tobytes() == b.path.values.tobytes()
        assert a.residuals == b.residuals and a.post_residual == b.post_residual


def test_a_report_logs_no_push_of_its_last_solve(monkeypatch):
    # no solve after the original game reads the log, so its pushes replay from
    # the log or walk unlogged: the log keeps its record count, no push walks
    # with the record hook, and the report is the one a logging last solve gives
    solves, pushes = [], []
    run_solve, walk = certify.solve_mfg, solver._walk

    def counting(kind, *args, _log, **kwargs):
        before = _records(_log)
        pushes.clear()
        eq = run_solve(kind, *args, _log=_log, **kwargs)
        solves.append((kind.variant, before, _records(_log), list(pushes)))
        return eq

    def spy(policies, grids, x0, noise, step, rewards=None, record=None):
        if rewards is None:  # a push, not an evaluation
            pushes.append(record is not None)
        return walk(policies, grids, x0, noise, step, rewards, record)

    monkeypatch.setattr(certify, "solve_mfg", counting)
    monkeypatch.setattr(solver, "_walk", spy)
    report = sandwich_report(G, B, _params(0.9), COSTS, LAW, FP)
    variant, before, after, logged = solves[-1]
    assert variant is Variant.ORIGINAL and before == after > 0
    assert logged and not any(logged)  # it walks, unlogged
    assert all(solves[0][3])  # the first solve logs every walk
    monkeypatch.setattr(certify, "MappingProxyType", lambda log: log)
    logging = sandwich_report(G, B, _params(0.9), COSTS, LAW, FP)
    assert solves[-1][2] > after  # a logging last solve adds records
    assert report.to_dict() == logging.to_dict()
    assert report.eq_orig.path.values.tobytes() == logging.eq_orig.path.values.tobytes()


def test_a_desk_report_walks_and_logs_as_many_pushes_as_before(monkeypatch):
    # the threshold lookup hands the push log and the evaluation followers only
    # the queries next to each switch; the brackets they fold are those of
    # every query, so the same pushes replay and the same followers stay.
    # One core: a twin's lost half would add walks.
    from ammfg import _fork, config
    monkeypatch.setattr(_fork, "_usable_cores", lambda: 1)
    walks, logs, walk, replay = [], [], solver._walk, solver._replay_or_walk

    def walking(*args, **kwargs):
        walks.append(1)
        return walk(*args, **kwargs)

    def logging(log, policy, walk):
        logs.append(log)
        return replay(log, policy, walk)

    monkeypatch.setattr(solver, "_walk", walking)
    monkeypatch.setattr(solver, "_replay_or_walk", logging)
    counts = []
    for phi in (0.9, 0.99, 0.9999, 0.997):
        cfg = config.load_config(None, [f"pool.phi={phi}", "grids.seed=20240814"])
        walks.clear()
        logs.clear()
        sandwich_report(config.grids(cfg), config.bounds(cfg), config.pool_params(cfg),
                        config.cost_spec(cfg), config.law0(cfg), config.fixed_point_config(cfg))
        counts.append((len(walks), _records(logs[0])))
    assert counts == [(46, 32), (22, 21), (17, 16), (17, 16)]
