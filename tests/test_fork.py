"""A Picard session's twin: half of every walked push on a forked process, bit for bit.

A lone solve_mfg or a sandwich report opens one twin (_fork.twin); the twin
runs the same solves, walks particles [n2, n) of every walked push while the
parent walks [0, n2), and the two swap their per-step sums, exit counts and
switch brackets. These tests pin where a twin opens, that it never nests,
that the bits do not depend on it, and that neither side hangs or leaves a
child behind when the other fails. Forks are counted through a file, where
forked processes' appends land as the parent's do.
"""
import dataclasses
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import ammfg
from ammfg import _fork, fixed_point, solver
from ammfg.certify import phi_sweep, sandwich_report
from ammfg.errors import NumericalError
from ammfg.fixed_point import FixedPointConfig, solve_mfg
from ammfg.grids import ControlBounds, Grids, InitialLaw
from ammfg.pool import PoolParams
from ammfg.rewards import RewardKind, Variant, quadratic_costs
from ammfg.solver import Policy, propagate, propagate_noise

G = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
          n_particles=2000, n_quad=5, seed=101)
B = ControlBounds(0.0, 0.5)
PARAMS = PoolParams(100.0, 1e6, 0.9, sigma=0.5)
COSTS = quadratic_costs(0.5, 0.5, 1.0)
LAW = InitialLaw(0.0, 0.5)
FP = FixedPointConfig(damping=0.5, tol=1e-3, max_iters=60)
KIND = RewardKind(Variant.ORIGINAL)


@pytest.fixture(autouse=True)
def two_cores(monkeypatch):
    """A twin opens here whatever the host's core count (tests switch it off at 1).

    It also stays for the whole session: on these small grids a twin does not
    pay, and the parent would kill it after its first push
    (test_a_twin_that_does_not_pay_is_killed checks that rule).
    """
    monkeypatch.setattr(_fork, "_usable_cores", lambda: 2)
    monkeypatch.setattr(_fork.twin, "_pace", lambda self, own: None)


def _one_core(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cores", lambda: 1)


def _log_forks(monkeypatch, path):
    """Patch os.fork: each child appends the pid of the process that forked it to path."""
    fork = os.fork

    def logging_fork():
        parent = os.getpid()
        pid = fork()
        if pid == 0:
            with open(path, "a") as fh:
                fh.write(f"{parent}\n")
        return pid

    monkeypatch.setattr(os, "fork", logging_fork)

    def forks():
        found = [int(pid) for pid in path.read_text().split()] if path.exists() else []
        path.unlink(missing_ok=True)
        return found

    return forks


def _solve(grids=G, law=LAW):
    return solve_mfg(KIND, grids, B, PARAMS, COSTS, law, FP)


def _same_solve(a, b):
    assert a.path.values.tobytes() == b.path.values.tobytes()
    assert a.policy.controls.tobytes() == b.policy.controls.tobytes()
    assert a.policy.switches.tobytes() == b.policy.switches.tobytes()
    assert (a.residuals, a.post_residual, a.exit_fraction, a.value) == \
        (b.residuals, b.post_residual, b.exit_fraction, b.value)


@pytest.mark.parametrize("n", [129, 130, 1000, 9999, 10000, 10001, 123457])
def test_numpy_sums_where_the_twin_splits(n):
    # the twin's bits rest on numpy's pairwise sum of n > 128 float64 terms
    # adding the sums of [0, n2) and [n2, n) last: a numpy that splits
    # elsewhere fails here rather than as a drifted artifact
    n2 = _fork.split(n)
    assert 0 < n2 < n and n2 % 8 == 0
    rng = np.random.default_rng(n)
    for offset in (0, 1, 3):  # a misaligned view as well as an aligned one
        for data in (rng.standard_normal(n + offset) * 1e3 + rng.random(),
                     rng.choice([0.0, 0.5], n + offset) + 1e-9 * rng.random(n + offset)):
            a = data[offset:]
            assert a.mean() == (a[:n2].sum() + a[n2:].sum()) / n
            # each process sums a fresh array of its own half
            assert a.mean() == (a[:n2].copy().sum() + a[n2:].copy().sum()) / n


def test_a_twin_opens_once_per_session_and_never_nests(monkeypatch, tmp_path):
    forks, me = _log_forks(monkeypatch, tmp_path / "forks"), os.getpid()
    phis = [0.95, 0.9]
    # two level workers, forked here; a twin inside one would be forked by it
    phi_sweep(phis, G, B, PARAMS, COSTS, LAW, FP, workers=2)
    assert forks() == [me, me]
    # one worker: the levels run here, each report with its twin
    phi_sweep(phis, G, B, PARAMS, COSTS, LAW, FP, workers=1)
    assert forks() == [me, me]
    # a report's three solves share one twin; a lone solve opens its own
    rep = sandwich_report(G, B, PARAMS, COSTS, LAW, FP)
    assert forks() == [me]
    _solve()
    assert forks() == [me]
    propagate(rep.eq_orig.policy, G, B, PARAMS, LAW)
    assert forks() == []


def test_each_walked_push_is_split_between_the_parent_and_its_twin(monkeypatch, tmp_path):
    log, walk, me = tmp_path / "walks", solver._walk, os.getpid()

    def spy(policies, grids, x0, noise, step, rewards=None, record=None):
        if rewards is None:  # a push, not an evaluation
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {x0.size}\n")
        return walk(policies, grids, x0, noise, step, rewards, record)

    monkeypatch.setattr(solver, "_walk", spy)
    eq = _solve()
    rows = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    n2 = _fork.split(G.n_particles)
    assert [size for pid, size in rows if pid == me] == [n2] * (eq.iterations + 1)
    assert [size for pid, size in rows if pid != me] == [G.n_particles - n2] * (eq.iterations + 1)
    assert len({pid for pid, _ in rows}) == 2


@pytest.mark.parametrize("off", ["one core", "no fork", "128 particles", "a second thread"])
def test_no_twin_where_it_cannot_open(monkeypatch, tmp_path, off):
    grids = dataclasses.replace(G, n_particles=128) if off == "128 particles" else G
    twinned = _solve(grids)
    forks = _log_forks(monkeypatch, tmp_path / "forks")
    if off == "one core":
        _one_core(monkeypatch)
    elif off == "no fork":
        monkeypatch.delattr(os, "fork")
    if off == "a second thread":
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            alone = _solve(grids)
        finally:
            done.set()
            waiter.join()
    else:
        alone = _solve(grids)
    if off != "no fork":
        assert forks() == []
    _same_solve(twinned, alone)


@pytest.mark.parametrize("parent_step, twin_step", [(3, 5), (5, 3), (4, 4), (2, None), (None, 6)])
def test_a_non_finite_control_in_either_half_is_refused_at_its_first_step(
        monkeypatch, parent_step, twin_step):
    me, control_at = os.getpid(), solver.Policy.control_at

    def spoiled(self, k, x, record=None):
        a = control_at(self, k, x, record)
        if k == (parent_step if os.getpid() == me else twin_step):
            a[0] = np.nan
        return a

    monkeypatch.setattr(solver.Policy, "control_at", spoiled)
    first = min(step for step in (parent_step, twin_step) if step is not None)
    with pytest.raises(NumericalError, match=f"^non-finite particle states at step {first}$"):
        _solve()
    if parent_step is not None:  # the serial walk's refusal, word for word
        _one_core(monkeypatch)
        with pytest.raises(NumericalError,
                           match=f"^non-finite particle states at step {parent_step}$"):
            _solve()


def _report_bits(rep):
    return (rep.to_dict(), *(getattr(rep, eq).path.values.tobytes()
                             for eq in ("eq_lower", "eq_upper", "eq_orig")))


def test_a_lost_twin_leaves_the_parent_walking_its_half(monkeypatch):
    me, walk, walks = os.getpid(), solver._walk, []

    def dying(policies, grids, x0, noise, step, rewards=None, record=None):
        if os.getpid() != me:
            walks.append(record)
            if len(walks) == 3:  # the twin's third push: it logs switch brackets
                os._exit(7)
        return walk(policies, grids, x0, noise, step, rewards, record)

    monkeypatch.setattr(solver, "_walk", dying)
    lost = sandwich_report(G, B, PARAMS, COSTS, LAW, FP)
    monkeypatch.undo()
    _one_core(monkeypatch)
    assert _report_bits(lost) == _report_bits(sandwich_report(G, B, PARAMS, COSTS, LAW, FP))


def test_a_twin_that_does_not_pay_is_killed(monkeypatch, tmp_path):
    # a twin that lags far behind its parent (a busy second core) is killed
    # at the end of its first push, and the parent walks every later push
    # whole; the bits stay those of one process
    log, walk, me = tmp_path / "walks", solver._walk, os.getpid()

    def lagging(policies, grids, x0, noise, step, rewards=None, record=None):
        if rewards is None:
            if os.getpid() == me:
                with open(log, "a") as fh:
                    fh.write(f"{x0.size}\n")
            else:
                time.sleep(0.2)
        return walk(policies, grids, x0, noise, step, rewards, record)

    monkeypatch.undo()
    monkeypatch.setattr(_fork, "_usable_cores", lambda: 2)
    monkeypatch.setattr(solver, "_walk", lagging)
    lagged = _solve()
    n2 = _fork.split(G.n_particles)
    assert list(map(int, log.read_text().split())) == \
        [n2] + [G.n_particles] * lagged.iterations
    monkeypatch.undo()
    _one_core(monkeypatch)
    _same_solve(lagged, _solve())


def test_a_twin_that_pays_stays_for_the_session(monkeypatch):
    # the rule itself, on made-up clocks: rounds that took less wall time
    # than this process alone would have spent keep the twin, and the first
    # round that tips the session's totals over kills it
    killed = []
    monkeypatch.undo()
    monkeypatch.setattr(_fork.twin, "_drop", lambda self: killed.append(self.pid))
    ticks = iter([(0.0, 0.0), (1.0, 0.6), (2.0, 1.2), (5.0, 1.6)])
    monkeypatch.setattr(_fork, "_clocks", lambda: next(ticks))
    session = _fork.twin(G.n_particles)
    session.pid, session.alive, session._fds = 1, True, ()
    session._mark, session._wall, session._alone = _fork._clocks(), 0.0, 0.0
    session._pace(0.5)  # wall 1.0 against 0.6 + 0.5 alone
    session._pace(0.5)  # 2.0 against 2.2
    assert session.alive and killed == []
    session._pace(0.5)  # 5.0 against 3.1: the twin costs more than it saves
    assert not session.alive and killed == [1]


def test_a_twin_whose_policy_differs_is_dropped(monkeypatch):
    me, solve_hjb, solves = os.getpid(), fixed_point.solve_hjb, []

    def drifting(*args, **kwargs):
        policy = solve_hjb(*args, **kwargs)
        solves.append(policy)
        if os.getpid() != me and len(solves) == 2:
            return dataclasses.replace(policy, controls=policy.controls + 1e-3)
        return policy

    monkeypatch.setattr(fixed_point, "solve_hjb", drifting)
    dropped = _solve()
    monkeypatch.undo()
    _one_core(monkeypatch)
    _same_solve(dropped, _solve())


def test_a_twin_whose_pushes_part_from_the_parent_s_is_dropped(monkeypatch):
    # a twin that replays nothing walks pushes its parent replays: the first
    # message whose length or policy differs from the parent's ends the
    # sharing, where waiting for the rest of it would hang both sides
    me, replay_or_walk = os.getpid(), solver._replay_or_walk

    def walking(log, policy, walk):
        return walk() if os.getpid() != me else replay_or_walk(log, policy, walk)

    params = dataclasses.replace(PARAMS, phi=0.997)
    monkeypatch.setattr(solver, "_replay_or_walk", walking)
    parted = sandwich_report(G, B, params, COSTS, LAW, FP)
    monkeypatch.undo()
    _one_core(monkeypatch)
    assert _report_bits(parted) == _report_bits(sandwich_report(G, B, params, COSTS, LAW, FP))


def test_a_raising_parent_kills_and_reaps_its_twin(monkeypatch):
    me, solve_hjb, calls = os.getpid(), fixed_point.solve_hjb, []

    def failing(*args, **kwargs):
        calls.append(None)
        if os.getpid() == me and len(calls) == 3:
            raise RuntimeError("parent fails mid-session")
        return solve_hjb(*args, **kwargs)

    monkeypatch.setattr(fixed_point, "solve_hjb", failing)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="parent fails mid-session"):
        _solve()
    assert time.perf_counter() - start < 30.0
    assert _fork._session is None  # the next solve opens a twin of its own
    # the autouse fixture checks that the twin has been reaped


def test_a_bracket_message_beyond_the_pipe_buffer_swaps_whole(monkeypatch, tmp_path):
    # every cell a switch cell: each side sends 2 * n_t * (n_x - 1) bracket
    # entries, 320 KB here, five times a pipe's usual 64 KB buffer
    grids = dataclasses.replace(G, n_t=50, n_x=401)
    row = np.where(np.arange(grids.n_x) % 2, B.a_max, B.a_min)
    policy = Policy(t_nodes=grids.t_nodes(), x_nodes=grids.x_nodes(),
                    controls=np.tile(row, (grids.n_t, 1)),
                    switches=np.full((grids.n_t, grids.n_x - 1), 0.5))
    assert 2 * 8 * policy.switches.size == 5 * 64000
    noise = propagate_noise(grids.seed, grids, LAW)
    forks = _log_forks(monkeypatch, tmp_path / "forks")
    logs = [{"noise": noise}, {"noise": noise}]
    with _fork.twin(grids.n_particles):
        twinned = propagate(policy, grids, B, PARAMS, LAW, _log=logs[0])
    assert forks() == [os.getpid()]
    alone = propagate(policy, grids, B, PARAMS, LAW, _log=logs[1])
    assert twinned[0].values.tobytes() == alone[0].values.tobytes()
    assert twinned[1] == alone[1]
    (a,), (b,) = ([v for k, v in log.items() if k != "noise"][0] for log in logs)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a[2:], b[2:]))
    assert np.isfinite(a[2]).any() and np.isfinite(a[3]).any()


def test_the_twin_leaves_without_a_trace(tmp_path):
    # it flushes no inherited stdout buffer, runs no exit hook and prints no
    # warning: each of the parent's edge warnings shows once on stderr
    code = """if True:
        import atexit, dataclasses, sys
        from ammfg import _fork
        from ammfg.fixed_point import FixedPointConfig, solve_mfg
        from ammfg.grids import ControlBounds, Grids, InitialLaw
        from ammfg.pool import PoolParams
        from ammfg.rewards import RewardKind, Variant, quadratic_costs
        _fork._usable_cores = lambda: 2
        forks = []
        fork = _fork.os.fork
        _fork.os.fork = lambda: forks.append(1) or fork()
        atexit.register(lambda: print("exit hook"))
        sys.stdout.write("buffered|")
        grids = Grids(n_t=20, x_min=-0.1, x_max=0.1, n_x=21, n_a=11, n_particles=2000)
        solve_mfg(RewardKind(Variant.ORIGINAL), grids, ControlBounds(0.0, 0.5),
                  PoolParams(100.0, 1e6, 0.9, sigma=0.5), quadratic_costs(0.5, 0.5, 1.0),
                  InitialLaw(0.0, 0.0), FixedPointConfig(max_iters=5))
        print(len(forks))
    """
    src = os.path.dirname(os.path.dirname(ammfg.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert done.stdout == "buffered|1\nexit hook\n"
    # the pushes' location and the evaluation's, each printed once
    shown = [line for line in done.stderr.splitlines() if "hit the state-grid edges" in line]
    assert len(shown) == len(set(shown)) == 2


def test_import_leaves_the_fork_machinery_out():
    src = os.path.dirname(os.path.dirname(ammfg.__file__))
    code = ("import sys, ammfg, ammfg.cli; "
            "print(sorted({'multiprocessing', 'socket', 'signal'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert done.stdout.strip() == "[]"
