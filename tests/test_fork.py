"""Where the work runs: a Picard session in the calling process, levels and spans on fork_map.

A lone solve_mfg or a sandwich report runs every best response and every
push in the calling process, whatever the host's cores. Only fork_map forks:
the fee sweep's level workers and the simulator's span workers. These tests
pin that a session forks nothing, that each push walks all its particles
here, that a forked worker returns the bits this process computes, and
fork_map's own contract (order, errors, fallbacks). Forks are counted
through a file, where forked processes' appends land as the parent's do.
"""
import contextlib
import dataclasses
import mmap
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import ammfg
from ammfg import _fork, fixed_point, solver
from ammfg._fork import fork_map
from ammfg.certify import phi_sweep, sandwich_report
from ammfg.errors import NumericalError
from ammfg.fixed_point import FixedPointConfig, solve_mfg
from ammfg.grids import ControlBounds, Grids, InitialLaw, make_path
from ammfg.pool import PoolParams
from ammfg.rewards import RewardKind, Variant, quadratic_costs
from ammfg.solver import Policy, propagate, propagate_noise, solve_hjb

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
    """Two usable cores here whatever the host's count: nothing in a session may fork."""
    monkeypatch.setattr(_fork, "_usable_cores", lambda: 2)


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


def _solve(grids=G, law=LAW, reward_fn=None):
    return solve_mfg(KIND, grids, B, PARAMS, COSTS, law, FP, reward_fn=reward_fn)


def _same_solve(a, b):
    assert a.path.values.tobytes() == b.path.values.tobytes()
    assert a.policy.controls.tobytes() == b.policy.controls.tobytes()
    assert a.policy.switches.tobytes() == b.policy.switches.tobytes()
    assert (a.residuals, a.post_residual, a.exit_fraction, a.value) == \
        (b.residuals, b.post_residual, b.exit_fraction, b.value)


def test_a_picard_session_forks_nothing_and_a_sweep_only_its_level_workers(monkeypatch,
                                                                          tmp_path):
    forks, me = _log_forks(monkeypatch, tmp_path / "forks"), os.getpid()
    phis = [0.95, 0.9]
    # two level workers, forked here; a session inside one forks nothing more
    phi_sweep(phis, G, B, PARAMS, COSTS, LAW, FP, workers=2)
    assert forks() == [me, me]
    # one worker: the levels and their reports run here
    phi_sweep(phis, G, B, PARAMS, COSTS, LAW, FP, workers=1)
    assert forks() == []
    rep = sandwich_report(G, B, PARAMS, COSTS, LAW, FP)
    assert forks() == []
    _solve()
    assert forks() == []
    propagate(rep.eq_orig.policy, G, B, PARAMS, LAW)
    assert forks() == []


def test_each_walked_push_walks_every_particle_here(monkeypatch, tmp_path):
    log, walk, me = tmp_path / "walks", solver._walk, os.getpid()

    def spy(policies, grids, x0, noise, step, rewards=None, record=None):
        if rewards is None:  # a push, not an evaluation
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {x0.size}\n")
        return walk(policies, grids, x0, noise, step, rewards, record)

    monkeypatch.setattr(solver, "_walk", spy)
    eq = _solve()
    rows = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert rows == [(me, G.n_particles)] * (eq.iterations + 1)


@pytest.mark.parametrize("off", ["one core", "no fork", "128 particles", "a second thread",
                                 "no shared memory"])
def test_a_solve_runs_here_and_its_bits_do_not_depend_on_the_host(monkeypatch, tmp_path, off):
    grids = dataclasses.replace(G, n_particles=128) if off == "128 particles" else G
    before = _solve(grids)
    forks = _log_forks(monkeypatch, tmp_path / "forks")
    if off == "one core":
        monkeypatch.setattr(_fork, "_usable_cores", lambda: 1)
    elif off == "no fork":
        monkeypatch.delattr(os, "fork")
    elif off == "no shared memory":
        def refused(*args):
            raise OSError("no memory to map")
        monkeypatch.setattr(mmap, "mmap", refused)
    if off == "a second thread":
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            after = _solve(grids)
        finally:
            done.set()
            waiter.join()
    else:
        after = _solve(grids)
    if off != "no fork":
        assert forks() == []
    _same_solve(before, after)


@pytest.mark.parametrize("first_step, last_step", [(3, 5), (5, 3), (4, 4), (2, None),
                                                   (None, 6)])
def test_a_non_finite_control_of_any_particle_is_refused_at_its_first_step(
        monkeypatch, first_step, last_step):
    # first_step spoils the first particle's control, last_step the last one's
    control_at = solver.Policy.control_at

    def spoiled(self, k, x, record=None):
        a = control_at(self, k, x, record)
        if k == first_step:
            a[0] = np.nan
        if k == last_step:
            a[-1] = np.nan
        return a

    monkeypatch.setattr(solver.Policy, "control_at", spoiled)
    first = min(step for step in (first_step, last_step) if step is not None)
    with pytest.raises(NumericalError, match=f"^non-finite particle states at step {first}$"):
        _solve()


def test_a_raising_solve_leaves_the_next_one_as_it_was(monkeypatch):
    before = _solve()
    solve_hjb, calls = fixed_point.solve_hjb, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("fails mid-session")
        return solve_hjb(*args, **kwargs)

    monkeypatch.setattr(fixed_point, "solve_hjb", failing)
    with pytest.raises(RuntimeError, match="fails mid-session"):
        _solve()
    monkeypatch.setattr(fixed_point, "solve_hjb", solve_hjb)
    _same_solve(before, _solve())


def test_a_push_with_every_cell_a_switch_cell_logs_and_replays_bitwise(monkeypatch):
    # every cell a switch cell: the push brackets 2 * n_t * (n_x - 1) switches
    grids = dataclasses.replace(G, n_t=50, n_x=401)
    row = np.where(np.arange(grids.n_x) % 2, B.a_max, B.a_min)
    policy = Policy(t_nodes=grids.t_nodes(), x_nodes=grids.x_nodes(),
                    controls=np.tile(row, (grids.n_t, 1)),
                    switches=np.full((grids.n_t, grids.n_x - 1), 0.5))
    noise = propagate_noise(grids.seed, grids, LAW)
    log = {"noise": noise}
    logged = propagate(policy, grids, B, PARAMS, LAW, _log=log)
    alone = propagate(policy, grids, B, PARAMS, LAW, noise=noise)
    assert logged[0].values.tobytes() == alone[0].values.tobytes()
    assert logged[1] == alone[1]
    (record,), = (v for k, v in log.items() if k != "noise")
    lo, hi = record[2:]
    assert lo.size == hi.size == policy.switches.size
    assert np.isfinite(lo).any() and np.isfinite(hi).any()
    # the same policy again replays its record, unwalked
    walks = []
    walk = solver._walk
    monkeypatch.setattr(solver, "_walk",
                        lambda *args, **kwargs: walks.append(None) or walk(*args, **kwargs))
    replayed = propagate(policy, grids, B, PARAMS, LAW, _log=log)
    assert walks == []
    assert replayed[0].values.tobytes() == alone[0].values.tobytes()
    assert replayed[1] == alone[1]


def test_a_solve_leaves_without_a_trace(tmp_path):
    # on two cores it forks nothing, flushes stdout and runs an exit hook
    # once, and each of its edge warnings shows once on stderr
    code = """if True:
        import atexit, sys
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
    assert done.stdout == "buffered|0\nexit hook\n"
    # the pushes' location and the evaluation's, each printed once
    shown = [line for line in done.stderr.splitlines() if "hit the state-grid edges" in line]
    assert len(shown) == len(set(shown)) == 2


# -- a best response, here and in a forked worker -----------------------------

def _path(grids, bounds=B):
    top = min(bounds.a_max, 0.3)
    return make_path(np.linspace(max(bounds.a_min, 0.0), top, grids.n_t + 1), grids, bounds,
                     PARAMS.x0)


def _same_policy(a, b):
    for name in ("controls", "switches", "values"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


BEST_RESPONSE_CASES = [
    *(pytest.param(G, B, PARAMS, RewardKind(variant, 1.0, e), id=f"{variant.value}-e{e}")
      for variant in Variant for e in (1, 2)),
    pytest.param(dataclasses.replace(G, n_a=10), ControlBounds(-0.5, 0.5), PARAMS, KIND,
                 id="a_min<0"),
    pytest.param(dataclasses.replace(G, n_t=1), B, PARAMS, KIND, id="n_t=1"),
    pytest.param(dataclasses.replace(G, n_a=1), B, PARAMS, KIND, id="n_a=1"),
    pytest.param(G, B, dataclasses.replace(PARAMS, sigma=0.0), KIND, id="sigma=0"),
    pytest.param(Grids(), B, dataclasses.replace(PARAMS, phi=0.997), KIND, id="desk"),
]


@pytest.mark.parametrize("grids, bounds, params, kind", BEST_RESPONSE_CASES)
def test_a_best_response_in_a_forked_worker_is_bitwise_the_one_here(
        monkeypatch, tmp_path, grids, bounds, params, kind):
    forks = _log_forks(monkeypatch, tmp_path / "forks")
    here = solve_hjb(_path(grids, bounds), kind, grids, bounds, params, COSTS)
    assert forks() == []
    forked = fork_map(lambda _: solve_hjb(_path(grids, bounds), kind, grids, bounds, params,
                                          COSTS), [0, 1], 2)
    assert forks() == [os.getpid()] * 2
    for policy in forked:
        _same_policy(policy, here)


def test_a_custom_reward_is_called_here_once_per_block_and_solves_the_same_forked(
        monkeypatch, tmp_path):
    builtin = solver._running_reward(None, KIND, G, B, PARAMS, COSTS)
    me, calls = os.getpid(), []

    def custom(t, x, a, path):  # a closure: a forked worker inherits it, unpickled
        if os.getpid() == me:
            calls.append(t.size)
        return builtin(t, x, a, path) - 0.01 * a ** 2

    here = _solve(reward_fn=custom)
    # blocks of ceil(sqrt(n_t + 1)) = 5 nodes, latest first, for every best
    # response; then one node per step for the evaluation
    blocks = [5, 5, 5, 5, 1]
    solves, rest = divmod(len(calls) - G.n_t, len(blocks))
    assert rest == 0 and solves == here.iterations + 1
    assert calls == blocks * solves + [1] * G.n_t
    forks = _log_forks(monkeypatch, tmp_path / "forks")
    forked = fork_map(lambda _: _solve(reward_fn=custom), [0, 1], 2)
    assert forks() == [me] * 2
    for eq in forked:
        _same_solve(eq, here)


def test_a_reward_that_raises_or_warns_on_a_late_node_does_so_once():
    builtin = solver._running_reward(None, KIND, G, B, PARAMS, COSTS)
    late = G.t_nodes()[8]  # a node of the third block

    def raising(t, x, a, path):
        if np.any(t == late):
            raise ZeroDivisionError("a late node")
        return builtin(t, x, a, path)

    def warning(t, x, a, path):
        if np.any(t == late):
            warnings.warn("a late node", UserWarning)
        return builtin(t, x, a, path)

    with pytest.raises(ZeroDivisionError, match="a late node"):
        solve_hjb(_path(G), KIND, G, B, PARAMS, COSTS, reward_fn=raising)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        warned = solve_hjb(_path(G), KIND, G, B, PARAMS, COSTS, reward_fn=warning)
    assert [str(w.message) for w in shown] == ["a late node"]
    _same_policy(warned, solve_hjb(_path(G), KIND, G, B, PARAMS, COSTS))


def _shared_mappings() -> int:
    with open("/proc/self/maps") as fh:
        return sum("/dev/zero" in line or "SYSV" in line for line in fh)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
@pytest.mark.parametrize("end", ["clean", "reward raises", "solve refuses"])
def test_no_shared_mapping_or_descriptor_outlives_a_best_response(end):
    maps, fds = _shared_mappings(), sorted(os.listdir("/proc/self/fd"))
    builtin = solver._running_reward(None, KIND, G, B, PARAMS, COSTS)

    def reward(t, x, a, path):
        if end == "reward raises":
            raise ZeroDivisionError("no reward")
        out = builtin(t, x, a, path)
        if end == "solve refuses":  # the backward loop refuses step n_t - 2
            out = np.where(t == G.t_nodes()[G.n_t - 2], np.inf, out)
        return out

    raised = None
    with contextlib.ExitStack() as stack:
        if end != "clean":
            raised = stack.enter_context(pytest.raises(
                ZeroDivisionError if end == "reward raises" else NumericalError))
        for _ in range(2):
            solve_hjb(_path(G), KIND, G, B, PARAMS, COSTS, reward_fn=reward)
    if raised is not None:  # its traceback, which holds solve_hjb's frame, lives on
        assert raised.value.__traceback__ is not None
    assert _shared_mappings() == maps
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_policy_reads_the_thresholds_of_its_own_solve():
    # each policy builds its thresholds at its first lookup: one solve's
    # must not serve the next solve's policy, whose switches sit elsewhere
    paths = [_path(G), make_path(np.full(G.n_t + 1, 0.1), G, B, PARAMS.x0)]
    noise = propagate_noise(G.seed, G, LAW)
    pushed = []
    for path in paths:
        policy = solve_hjb(path, KIND, G, B, PARAMS, COSTS)
        pushed.append((policy, propagate(policy, G, B, PARAMS, LAW, noise=noise)))
    first, second = (policy for policy, _ in pushed)
    assert first.switches.tobytes() != second.switches.tobytes()
    assert all(cut is not None for policy in (first, second)
               for cut in solver._thresholds(policy))
    for policy, (path, exit_fraction) in pushed:
        fresh = dataclasses.replace(policy)  # no thresholds built yet
        alone, alone_exit = propagate(fresh, G, B, PARAMS, LAW, noise=noise)
        assert (path.values.tobytes(), exit_fraction) == (alone.values.tobytes(), alone_exit)


# -- fork_map -----------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fork_map_returns_results_in_item_order_on_as_many_workers_as_it_needs(
        monkeypatch, tmp_path, workers, n):
    forks, me = _log_forks(monkeypatch, tmp_path / "forks"), os.getpid()
    results = fork_map(lambda i: (i * i, os.getpid()), range(n), workers)
    assert [value for value, _ in results] == [i * i for i in range(n)]
    forked = min(workers, n) if workers > 1 and n > 1 else 0
    assert forks() == [me] * forked
    pids = {pid for _, pid in results}
    if forked:
        assert me not in pids and len(pids) <= forked
    else:
        assert pids <= {me}


def test_fork_map_raises_a_worker_s_error_with_its_type_and_message():
    def one(i):
        if i == 2:
            raise NumericalError("non-finite particle states at step 3")
        return i

    with pytest.raises(NumericalError, match="^non-finite particle states at step 3$"):
        fork_map(one, range(4), 2)
    # the autouse fixture checks that every worker has been joined


def test_fork_map_runs_the_items_here_without_fork(monkeypatch, tmp_path):
    forks, me = _log_forks(monkeypatch, tmp_path / "forks"), os.getpid()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    seen = []
    # a closure that no spawned worker could unpickle
    assert fork_map(lambda i: seen.append(i) or (i, os.getpid()), range(3), 4) == \
        [(0, me), (1, me), (2, me)]
    assert seen == [0, 1, 2]
    assert forks() == []


@pytest.mark.parametrize("host", ["affinity", "no affinity", "no count"])
def test_usable_cores_reads_the_affinity_else_the_cpu_count(monkeypatch, host):
    monkeypatch.undo()  # the real _usable_cores
    if host == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _fork._usable_cores() == 3
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None if host == "no count" else 6)
        assert _fork._usable_cores() == (1 if host == "no count" else 6)
