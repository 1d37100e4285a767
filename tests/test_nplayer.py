import dataclasses
import itertools
import multiprocessing
import os
import threading

import numpy as np
import pytest

from ammfg import nplayer
from ammfg.errors import AdmissibilityError, DomainError, NumericalError
from ammfg.grids import ControlBounds, Grids, InitialLaw, make_path
from ammfg.nplayer import (PRICE_MODES, DeviationGain, SimConfig, SimResult,
                           deviation_gain, impact_aware_reward, simulate)
from ammfg.pool import (PoolParams, bid_ask_mid, buy_swap, execute_swap,
                        price_after_aggregate, spot_price)
from ammfg.rewards import CostSpec, RewardKind, Variant, quadratic_costs
from ammfg.solver import Policy, solve_hjb
from ammfg.streams import substream
from policies import constant_policy

BOUNDS = ControlBounds(0.0, 0.5)
COSTS = quadratic_costs(0.5, 0.5, 1.0)


def test_sim_config_validation():
    with pytest.raises(DomainError, match="n_traders"):
        SimConfig(n_traders=0)
    with pytest.raises(DomainError, match="n_reps"):
        SimConfig(n_reps=0)
    with pytest.raises(DomainError, match="price_mode"):
        SimConfig(price_mode="midpoint")
    with pytest.raises(DomainError, match="p_min"):
        SimConfig(p_min=0.0)


def test_simulate_shapes_and_mean_control(grids_small, params_default):
    cfg = SimConfig(n_traders=4, n_reps=3)
    pol = constant_policy(0.2, grids_small, BOUNDS)
    res = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS,
                   InitialLaw(0.0, 0.5), seed=7)
    n_t = grids_small.n_t
    assert res.profits.shape == (3, 4)
    assert res.mean_control.shape == (n_t + 1,)
    for name in ("price_path", "price_aggregate", "price_sequential",
                 "k_path_aggregate", "k_path_sequential"):
        assert getattr(res, name).shape == (n_t + 1,)
    # the terminal node repeats the last traded interval
    assert res.mean_control[n_t] == res.mean_control[n_t - 1]
    assert np.all(res.mean_control >= 0.0) and np.all(res.mean_control <= 0.5)
    assert np.isfinite(res.mode_discrepancy)


def test_simulate_rejects_inadmissible_bounds(grids_small, params_default):
    wide = ControlBounds(0.0, 200.0)
    pol = constant_policy(0.0, grids_small, wide)
    with pytest.raises(AdmissibilityError, match="deplete"):
        simulate(pol, SimConfig(n_traders=2, n_reps=1), grids_small, wide,
                 params_default, COSTS, InitialLaw(0.0, 0.0))


def test_simulate_deterministic(grids_small, params_default):
    cfg = SimConfig(n_traders=3, n_reps=4)
    pol = constant_policy(0.1, grids_small, BOUNDS)
    law = InitialLaw(0.0, 1.0)
    a = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=11)
    b = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=11)
    c = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=12)
    np.testing.assert_array_equal(a.profits, b.profits)
    np.testing.assert_array_equal(a.mean_control, b.mean_control)
    np.testing.assert_array_equal(a.price_path, c.price_path)  # noise-free here
    assert not np.array_equal(a.profits, c.profits)


def test_replications_are_keyed_not_batched(grids_small, params_default):
    # rep r draws from substream (seed, "sim", r), so a longer run extends a
    # shorter one row for row
    cfg = SimConfig(n_traders=3, n_reps=5)
    pol = constant_policy(0.1, grids_small, BOUNDS)
    law = InitialLaw(0.0, 1.0)
    five = simulate(pol, cfg, grids_small, BOUNDS, params_default, COSTS, law, seed=5)
    three = simulate(pol, SimConfig(n_traders=3, n_reps=3), grids_small, BOUNDS,
                     params_default, COSTS, law, seed=5)
    np.testing.assert_array_equal(five.profits[:3], three.profits)
    np.testing.assert_array_equal(five.price_path, three.price_path)


def test_idle_market_profit_exact():
    g = Grids(horizon=1.0, n_t=16, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.997, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.0, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=2, n_reps=2), g, BOUNDS, params,
                   COSTS, InitialLaw(1.0, 0.0), seed=1)
    # x == 1 throughout, price pinned at k0/x0^2 = 100, dt exactly 2^-4:
    # profit = 1*100 - 0.5*T - l(1) with no float slack anywhere
    assert np.all(res.profits == 99.0)
    assert np.all(res.mean_control == 0.0)
    assert np.all(res.price_path == 100.0)


def test_aggregate_price_and_invariant_paths():
    g = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.5, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=1, n_reps=1), g, BOUNDS, params,
                   COSTS, InitialLaw(0.0, 0.0), seed=1)
    flow = 0.5 * g.t_nodes()
    x0, k0, phi = params.x0, params.k0, params.phi
    np.testing.assert_allclose(
        res.price_aggregate, k0 / ((x0 - phi * flow) * (x0 - flow)), rtol=1e-12)
    np.testing.assert_allclose(
        res.k_path_aggregate, (x0 - flow) * k0 / (x0 - phi * flow), rtol=1e-12)
    # net buying: the one-shot convention rebates fees, the stepwise pool
    # collects them
    assert res.k_path_aggregate[0] == k0
    assert np.all(np.diff(res.k_path_aggregate) < 0)
    assert res.k_path_sequential[0] == k0
    assert np.all(np.diff(res.k_path_sequential) > 0)
    assert res.k_min_increment > 0
    assert res.mode_discrepancy > 0
    assert np.all(res.price_sequential >= res.price_aggregate - 1e-15)
    # noise-free aggregate mode trades at the aggregate price
    np.testing.assert_array_equal(res.price_path, res.price_aggregate)


def test_fee_free_modes_agree():
    g = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 1.0, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.5, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=1, n_reps=1), g, BOUNDS, params,
                   COSTS, InitialLaw(0.0, 0.0), seed=1)
    assert res.mode_discrepancy <= 1e-9


def test_sequential_mode_price_path():
    g = Grids(horizon=1.0, n_t=10, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.0, sigma0=0.0)
    pol = constant_policy(0.3, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=2, n_reps=1, price_mode="sequential"),
                   g, BOUNDS, params, COSTS, InitialLaw(0.0, 0.0), seed=1)
    np.testing.assert_array_equal(res.price_path, res.price_sequential)


def test_pool_paths_replay_through_pool_formulas():
    # the crowd buys for the first half of the horizon and sells for the
    # second, so both legs of the sequential venue run; replaying the mean
    # flow through the scalar pool functions rebuilds every pool path exactly
    g = Grids(horizon=1.0, n_t=40, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    bounds = ControlBounds(-0.5, 0.5)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.5, sigma0=0.0)
    rows = np.where(np.arange(g.n_t)[:, None] < g.n_t // 2, 0.4, -0.3)
    pol = Policy(t_nodes=g.t_nodes(), x_nodes=g.x_nodes(),
                 controls=rows * np.ones((g.n_t, g.n_x)))
    res = simulate(pol, SimConfig(n_traders=3, n_reps=1, price_mode="sequential"),
                   g, bounds, params, COSTS, InitialLaw(0.0, 1.0), seed=2)
    steps = res.mean_control[:-1]
    assert np.sum(steps > 0) == np.sum(steps < 0) == 20
    state = params.initial_state()
    prices, ks, flow = [spot_price(state)], [state.k], [0.0]
    for m in steps:
        delta = -m * g.dt
        swap = (execute_swap(state, delta, params.phi) if delta >= 0
                else buy_swap(state, -delta, params.phi))
        state = swap.new_state
        prices.append(spot_price(state))
        ks.append(state.k)
        flow.append(flow[-1] + m * g.dt)
    np.testing.assert_array_equal(res.price_sequential, prices)
    np.testing.assert_array_equal(res.k_path_sequential, ks)
    np.testing.assert_array_equal(res.price_aggregate,
                                  price_after_aggregate(params, -np.array(flow)))
    np.testing.assert_array_equal(res.price_path, res.price_sequential)


def test_price_floor_engages(grids_small):
    params = PoolParams(100.0, 1e6, 0.997, sigma=0.0, sigma0=1e6)
    pol = constant_policy(0.0, grids_small, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=2, n_reps=4, p_min=1e-6),
                   grids_small, BOUNDS, params, COSTS, InitialLaw(0.0, 0.0), seed=9)
    assert res.floored_steps > 0
    assert np.min(res.price_path) >= 1e-6
    assert np.all(np.isfinite(res.profits))


def test_deviation_gain_null(grids_small, params_default):
    pol = constant_policy(0.2, grids_small, BOUNDS)
    out = deviation_gain(pol, pol, SimConfig(n_traders=3, n_reps=7), grids_small,
                         BOUNDS, params_default, COSTS, InitialLaw(0.0, 1.0), seed=21)
    assert isinstance(out, DeviationGain)
    assert out.gain == 0.0 and out.stderr == 0.0
    assert out.ci_low == 0.0 and out.ci_high == 0.0
    assert out.n_reps == 7


def test_deviation_gain_paired_ci(grids_small, params_default):
    crowd = constant_policy(0.3, grids_small, BOUNDS)
    dev = constant_policy(0.0, grids_small, BOUNDS)
    out = deviation_gain(crowd, dev, SimConfig(n_traders=3, n_reps=16),
                         grids_small, BOUNDS, params_default, COSTS,
                         InitialLaw(0.0, 1.0), seed=21)
    assert out.ci_low == pytest.approx(out.gain - 1.96 * out.stderr, rel=1e-12)
    assert out.ci_high == pytest.approx(out.gain + 1.96 * out.stderr, rel=1e-12)
    assert out.stderr > 0


def test_simulator_refuses_non_finite_controls():
    # as in propagate and evaluate: refused at the step the control turns
    # non-finite, not by a bad index at the next step's lookup; a NaN deviant
    # spoils only its own arm, and that is enough
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.5)
    cfg = SimConfig(n_traders=3, n_reps=4)
    for n_t, first_bad in ((1, 0), (2, 0), (2, 1), (5, 0), (5, 4)):
        g = Grids(n_t=n_t, n_x=11, n_a=3, n_particles=20)
        good = constant_policy(0.1, g, BOUNDS)
        controls = np.full((n_t, g.n_x), 0.1)
        controls[first_bad:] = np.nan
        bad = Policy(t_nodes=g.t_nodes(), x_nodes=g.x_nodes(), controls=controls)
        match = f"non-finite trader controls at step {first_bad}"
        with pytest.raises(NumericalError, match=match):
            simulate(bad, cfg, g, BOUNDS, params, COSTS, InitialLaw(0.0, 0.5), seed=3)
        for crowd, deviant in ((bad, bad), (good, bad), (bad, good)):
            with pytest.raises(NumericalError, match=match):
                deviation_gain(crowd, deviant, cfg, g, BOUNDS, params, COSTS,
                               InitialLaw(0.0, 0.5), seed=3)


def test_single_trader_profit_matches_closed_form():
    # phi = 1 kills the spread and the fee, so trader wealth against its own
    # price impact has a closed per-step form
    g = Grids(horizon=1.0, n_t=100, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 1.0, sigma=0.0, sigma0=0.0)
    costs0 = quadratic_costs(0.0, 0.0, 1.0)
    pol = constant_policy(0.5, g, BOUNDS)
    res = simulate(pol, SimConfig(n_traders=1, n_reps=1), g, BOUNDS, params,
                   costs0, InitialLaw(0.0, 0.0), seed=1)
    tk = g.t_nodes()
    price = params.k0 / (params.x0 - 0.5 * tk) ** 2
    expected = -0.5 * np.sum(price[:-1] * g.dt) + 0.5 * price[-1]
    assert res.profits[0, 0] == pytest.approx(expected, rel=1e-12)
    # left-endpoint quadrature sits within O(dt) of the continuous-time value
    assert abs(expected - 0.252518875785965) < 0.003


def test_impact_aware_reward_golden():
    g = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, seed=3)
    params = PoolParams(100.0, 1e6, 0.9, sigma=0.5)
    path = make_path(np.full(g.n_t + 1, 0.3), g, BOUNDS, params.x0)
    kind = RewardKind(Variant.ORIGINAL)
    f1 = impact_aware_reward(1, params, COSTS, kind)
    f2 = impact_aware_reward(2, params, COSTS, kind)
    assert float(f1(0.5, 1.2, 0.25, path)) == pytest.approx(
        -0.1475679877427425, rel=1e-13)
    assert float(f2(0.5, 1.2, 0.25, path)) == pytest.approx(
        -0.09032338968316167, rel=1e-13)
    # huge crowds recover the mean-field drift x*kernel*m
    f_inf = impact_aware_reward(10**9, params, COSTS, kind)
    mf = 1.2 * 0.5724459805958076 - 1.3968338550196274e-05 - 0.72
    assert float(f_inf(0.5, 1.2, 0.25, path)) == pytest.approx(mf, rel=1e-8)
    out = f2(0.5, np.array([1.2, -0.4]), np.array([0.25, 0.0]), path)
    assert np.asarray(out).shape == (2,)


GRIDS = Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
              n_particles=100, n_quad=5, seed=101)
PARAMS = PoolParams(100.0, 1e6, 0.997, sigma=0.5)
LAW = InitialLaw(0.0, 1.0)


def _best_response(grids, params):
    """The solver's best response to a constant crowd: a policy with switch cells."""
    path = make_path(np.full(grids.n_t + 1, 0.2), grids, BOUNDS, params.x0)
    return solve_hjb(path, RewardKind(Variant.ORIGINAL), grids, BOUNDS, params, COSTS)


def _smooth_policy(grids, level=0.23, bounds=BOUNDS, trend=0.1):
    """Controls that vary continuously in t and x, so sums of them round.

    A bang-bang policy's controls are sums of 0 and 0.5, which are exact in
    any order and would hide a change in the order of the crowd's mean.
    """
    x, t = grids.x_nodes(), grids.t_nodes()
    rows = level - 0.07 * x[None, :] + trend * t[:-1, None]
    return Policy(t_nodes=t, x_nodes=x, controls=np.clip(rows, bounds.a_min, bounds.a_max))


def _chunked(monkeypatch, size):
    monkeypatch.setattr(nplayer, "_chunks", lambda n_reps, *_: [
        (s, min(s + size, n_reps)) for s in range(0, n_reps, size)])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("price_mode", PRICE_MODES)
def test_results_do_not_depend_on_chunking(monkeypatch, price_mode):
    crowd, dev = _smooth_policy(GRIDS), _best_response(GRIDS, PARAMS)
    cfg = SimConfig(n_traders=5, n_reps=9, price_mode=price_mode)
    runs = []
    for size in (9, 4, 1):
        _chunked(monkeypatch, size)
        runs.append(simulate(crowd, cfg, GRIDS, BOUNDS, PARAMS, COSTS, LAW,
                             deviant_policy=dev, seed=13))
    for other in runs[1:]:
        for field in dataclasses.fields(SimResult):
            assert _same_bits(getattr(runs[0], field.name), getattr(other, field.name)), field.name


def _logged(monkeypatch, name, path):
    """Patch nplayer.<name> to log each call's pid and last argument to ``path``.

    A file, not a list: a pass's forked workers inherit the patch, and their
    appends reach the file as the parent's do. Returns a reader that empties
    the log and gives, per process in order of appearance, the last
    arguments of its calls.
    """
    real = getattr(nplayer, name)

    def logging(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {args[-1]}\n")
        return real(*args)

    def read():
        by_pid = {}
        for line in path.read_text().splitlines():
            pid, last = map(int, line.split())
            by_pid.setdefault(pid, []).append(last)
        path.unlink()
        return by_pid

    monkeypatch.setattr(nplayer, name, logging)
    return read


def _pinned(monkeypatch, cores):
    monkeypatch.setattr(nplayer, "_usable_cores", lambda: cores)


def _assert_same_fields(a, b):
    for field in dataclasses.fields(a):
        assert _same_bits(getattr(a, field.name), getattr(b, field.name)), field.name


@pytest.mark.parametrize("price_mode", PRICE_MODES)
@pytest.mark.parametrize("chunk", [None, 4])
def test_results_do_not_depend_on_worker_count(monkeypatch, tmp_path, price_mode, chunk):
    if chunk is not None:
        _chunked(monkeypatch, chunk)
    crowd, dev = _smooth_policy(GRIDS), _best_response(GRIDS, PARAMS)
    args = (SimConfig(n_traders=5, n_reps=9, price_mode=price_mode), GRIDS, BOUNDS, PARAMS,
            COSTS, LAW)
    drawn = _logged(monkeypatch, "substream", tmp_path / "draws")
    runs = []
    for cores in (1, 2, 3):
        _pinned(monkeypatch, cores)
        spans = [set(range(lo, hi)) for lo, hi in nplayer._slices(9, cores)]
        run = []
        for one_pass in (lambda: simulate(crowd, *args, deviant_policy=dev, seed=13),
                         lambda: deviation_gain(crowd, dev, *args, seed=13)):
            run.append(one_pass())
            assert multiprocessing.active_children() == []
            # the pass drew each replication once: on one core here, else in
            # one contiguous span per core, each whole on a forked worker (a
            # worker that is done with its span may take a second one)
            by_pid = drawn()
            if cores == 1:
                assert by_pid == {os.getpid(): list(range(9))}
                continue
            assert os.getpid() not in by_pid and len(by_pid) <= cores
            assert sorted(r for reps in by_pid.values() for r in reps) == list(range(9))
            assert all(any(span <= set(reps) for reps in by_pid.values()) for span in spans)
        runs.append(run)
    for other in runs[1:]:
        for one, many in zip(runs[0], other):  # the SimResults, then the DeviationGains
            _assert_same_fields(one, many)


def test_a_pass_runs_in_process_without_fork(monkeypatch, tmp_path):
    crowd, dev = _smooth_policy(GRIDS), _best_response(GRIDS, PARAMS)
    args = (SimConfig(n_traders=5, n_reps=9), GRIDS, BOUNDS, PARAMS, COSTS, LAW)
    _pinned(monkeypatch, 3)
    drawn = _logged(monkeypatch, "substream", tmp_path / "draws")
    forked = (simulate(crowd, *args, deviant_policy=dev, seed=13),
              deviation_gain(crowd, dev, *args, seed=13))
    assert os.getpid() not in drawn()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    here = (simulate(crowd, *args, deviant_policy=dev, seed=13),
            deviation_gain(crowd, dev, *args, seed=13))
    assert drawn() == {os.getpid(): list(range(9)) * 2}
    for a, b in zip(forked, here):
        _assert_same_fields(a, b)


class _CountingPool:
    """Wraps the worker pool class and counts the pools made."""

    made = 0

    def __init__(self, real):
        self.real = real

    def __call__(self, *args, **kwargs):
        type(self).made += 1
        return self.real(*args, **kwargs)


@pytest.mark.parametrize("cores", [1, 3])
def test_one_draw_pool_per_pass(monkeypatch, cores):
    # a pass maps its spans once, on at most one pool of forked workers (none
    # on one core), and joins that pool's processes and threads, also on error
    import concurrent.futures
    _chunked(monkeypatch, 4)  # 9 replications in three chunks
    _pinned(monkeypatch, cores)
    maps = []
    real_map = nplayer.fork_map

    def counting_map(fn, items, workers):
        maps.append(workers)
        return real_map(fn, items, workers)

    monkeypatch.setattr(nplayer, "fork_map", counting_map)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _CountingPool(concurrent.futures.ProcessPoolExecutor))
    monkeypatch.setattr(_CountingPool, "made", 0)
    crowd, dev = _smooth_policy(GRIDS), _best_response(GRIDS, PARAMS)
    args = (SimConfig(n_traders=5, n_reps=9), GRIDS, BOUNDS, PARAMS, COSTS, LAW)
    pools = 0 if cores == 1 else 1  # pools a pass makes
    before = threading.active_count()
    simulate(crowd, *args, deviant_policy=dev, seed=13)
    assert maps == [cores] and _CountingPool.made == pools
    deviation_gain(crowd, dev, *args, seed=13)
    assert maps == [cores] * 2 and _CountingPool.made == 2 * pools
    with pytest.raises(RuntimeError):  # a failed draw still joins the pool's workers
        simulate(crowd, *args[:-1], _RefusingLaw(), seed=13)
    assert maps == [cores] * 3 and _CountingPool.made == 3 * pools
    assert threading.active_count() == before and multiprocessing.active_children() == []


def test_slices_never_outnumber_replications():
    before = threading.active_count()
    spans = nplayer._slices(9, 1000)
    assert threading.active_count() == before  # a pure helper starts no thread
    assert len(spans) <= 9
    # contiguous, non-empty and covering every replication once
    assert spans[0][0] == 0 and spans[-1][1] == 9
    assert all(lo < hi for lo, hi in spans)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert nplayer._slices(9, 1) == [(0, 9)]
    assert nplayer._slices(7, 3) == [(0, 2), (2, 4), (4, 7)]


WINDOW = 5_000_000  # floats of trader noise a chunk may hold: 40 MB


@pytest.mark.parametrize("n_traders, n_t", [(1, 1), (5, 20), (10, 100), (50, 100), (250, 100),
                                            (2000, 120), (49_999, 100), (60_000, 100)])
def test_chunks_hold_at_most_the_noise_window(n_traders, n_t):
    # a pass's workers share the window: each holds at most WINDOW // workers
    per_rep = n_traders * n_t
    for n_reps, workers in itertools.product((1, 7, 1000, 20_000), (1, 2, 3)):
        chunks = nplayer._chunks(n_reps, n_traders, n_t, workers)
        sizes = [hi - lo for lo, hi in chunks]
        assert chunks[0][0] == 0 and chunks[-1][1] == n_reps
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert min(sizes) >= 1 and sizes[0] == max(sizes)  # the first buffer fits them all
        if per_rep > WINDOW // workers:  # a replication alone is over the window
            assert sizes == [1] * n_reps
        else:
            assert max(sizes) * per_rep <= WINDOW // workers


def test_a_pass_splits_the_noise_window_among_its_workers(monkeypatch, tmp_path):
    # each of the pass's 3 workers chunks its own span under a third of the window
    chunked = _logged(monkeypatch, "_chunks", tmp_path / "chunks")
    _pinned(monkeypatch, 3)
    pol = constant_policy(0.1, GRIDS, BOUNDS)
    simulate(pol, SimConfig(n_traders=5, n_reps=7), GRIDS, BOUNDS, PARAMS, COSTS, LAW, seed=1)
    by_pid = chunked()
    assert os.getpid() not in by_pid
    assert sorted(w for calls in by_pid.values() for w in calls) == [3, 3, 3]


def test_chunks_of_a_pass_draw_into_one_buffer(monkeypatch):
    _chunked(monkeypatch, 4)
    _pinned(monkeypatch, 1)  # one span, drawn in this process, where the spy records
    drawn = []
    draw = nplayer._draw

    def spy(*args):
        drawn.append(args[-3:])  # x_start, noise, xi0
        return draw(*args)

    monkeypatch.setattr(nplayer, "_draw", spy)
    crowd, dev = _smooth_policy(GRIDS), _best_response(GRIDS, PARAMS)
    cfg = SimConfig(n_traders=5, n_reps=9)
    for run in (lambda: simulate(crowd, cfg, GRIDS, BOUNDS, PARAMS, COSTS, LAW, seed=13),
                lambda: deviation_gain(crowd, dev, cfg, GRIDS, BOUNDS, PARAMS, COSTS, LAW,
                                       seed=13)):
        drawn.clear()
        run()
        assert [noise.shape for _, noise, _ in drawn] == [(GRIDS.n_t, m, 5) for m in (4, 4, 1)]
        for arrays in drawn[1:]:
            assert all(np.shares_memory(a, b) for a, b in zip(drawn[0], arrays))


class _RefusingLaw:
    """An initial law whose sample raises, to follow the error out of the draw."""

    def __init__(self):
        self.error = RuntimeError("refused to sample")

    def sample(self, n, rng):
        raise self.error


@pytest.mark.parametrize("cores", [1, 3])
def test_a_draw_error_reaches_the_caller_unchanged(monkeypatch, cores, grids_small,
                                                   params_default):
    _pinned(monkeypatch, cores)
    law = _RefusingLaw()
    pol = constant_policy(0.1, grids_small, BOUNDS)
    with pytest.raises(RuntimeError) as info:
        simulate(pol, SimConfig(n_traders=3, n_reps=6), grids_small, BOUNDS, params_default,
                 COSTS, law, seed=1)
    # a forked worker's error comes back pickled: the same type and message
    assert type(info.value) is RuntimeError and str(info.value) == "refused to sample"
    assert cores > 1 or info.value is law.error
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [1, 3])
def test_a_step_error_reaches_the_caller_and_joins_the_workers(monkeypatch, cores):
    _pinned(monkeypatch, cores)
    params = PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.5)
    g = Grids(n_t=3, n_x=11, n_a=3, n_particles=20)
    good = constant_policy(0.1, g, BOUNDS)
    controls = np.full((g.n_t, g.n_x), 0.1)
    controls[1:] = np.nan
    bad = Policy(t_nodes=g.t_nodes(), x_nodes=g.x_nodes(), controls=controls)
    args = (SimConfig(n_traders=3, n_reps=6), g, BOUNDS, params, COSTS, InitialLaw(0.0, 0.5))
    for run in (lambda: simulate(bad, *args, seed=3),
                lambda: deviation_gain(good, bad, *args, seed=3)):
        with pytest.raises(NumericalError) as info:
            run()
        assert type(info.value) is NumericalError
        assert str(info.value) == "non-finite trader controls at step 1"
        assert multiprocessing.active_children() == []


def test_deviation_gain_skips_the_crowd_bookkeeping(monkeypatch):
    # deviation_gain reads only trader 1's profits, so its pass charges the
    # running cost to trader 1's (arms, m) inventories alone; simulate also
    # charges the crowd's (m, n - 1)
    _pinned(monkeypatch, 1)  # one span, run in this process, where the cost spy records
    shapes = []

    def h(t, x):
        shapes.append(np.shape(x))
        return COSTS.h(t, x)

    costs = CostSpec(h=h, l=COSTS.l, c1=COSTS.c1)
    crowd, dev = _smooth_policy(GRIDS), _best_response(GRIDS, PARAMS)
    cfg = SimConfig(n_traders=5, n_reps=7)
    gain = deviation_gain(crowd, dev, cfg, GRIDS, BOUNDS, PARAMS, costs, LAW, seed=3)
    assert set(shapes) == {(2, 7)} and len(shapes) == GRIDS.n_t
    assert _same_bits(gain.gain,
                      deviation_gain(crowd, dev, cfg, GRIDS, BOUNDS, PARAMS, COSTS, LAW,
                                     seed=3).gain)
    shapes.clear()
    simulate(crowd, cfg, GRIDS, BOUNDS, PARAMS, costs, LAW, deviant_policy=dev, seed=3)
    assert set(shapes) == {(1, 7), (7, 4)}


def _replication_loop(policy, deviant, cfg, grids, params, seed):
    """Every SimResult field from a plain loop over replications, by name.

    The reference for the vectorised simulator: the same draws and the same
    per-trader arithmetic, one market at a time, with scalar pool calls and
    no chunks or arms.
    """
    n, n_t, dt, phi = cfg.n_traders, grids.n_t, grids.dt, params.phi
    t, sqdt = grids.t_nodes(), np.sqrt(dt)
    profits, step_means = np.empty((cfg.n_reps, n)), np.empty((n_t, cfg.n_reps))
    first = {name: [] for name in ("price_path", "price_aggregate", "price_sequential",
                                   "k_path_aggregate", "k_path_sequential")}
    gap, k_inc, floored = 0.0, np.inf, 0
    for r in range(cfg.n_reps):
        rng = substream(seed, "sim", r)
        xs = LAW.sample(n, rng)
        xi, xi0 = rng.standard_normal((n, n_t)), rng.standard_normal(n_t)
        ys, hcost = np.zeros(n), np.zeros(n)
        seq, flow, w0 = params.initial_state(), 0.0, 0.0
        for k in range(n_t + 1):
            p_agg, p_seq = price_after_aggregate(params, -flow), spot_price(seq)
            raw = (p_agg if cfg.price_mode == "aggregate" else p_seq) + params.sigma0 * w0
            price = max(raw, cfg.p_min)
            gap, floored = max(gap, abs(p_agg - p_seq)), floored + int(raw < cfg.p_min)
            if r == 0:
                k_agg = execute_swap(params.initial_state(), -flow, phi).new_state.k
                for name, v in zip(first, (price, p_agg, p_seq, k_agg, seq.k)):
                    first[name].append(v)
            if k == n_t:
                break
            a = policy.control_at(k, xs)
            if deviant is not None:
                a[0] = deviant.control_at(k, xs[:1])[0]
            fill = bid_ask_mid(price, phi)[2] if cfg.use_mid_price else price
            ys -= a * fill * dt
            hcost += COSTS.h(t[k], xs) * dt
            xs = xs + a * dt + params.sigma * sqdt * xi[:, k]
            step_means[k, r] = a.mean()
            delta = -step_means[k, r] * dt
            swap = (execute_swap(seq, delta, phi) if delta >= 0
                    else buy_swap(seq, -delta, phi))
            k_inc = min(k_inc, float(swap.new_state.k - seq.k))
            seq, flow, w0 = swap.new_state, flow - delta, w0 + sqdt * xi0[k]
        profits[r] = ys + xs * price - hcost - COSTS.l(xs)
    mean_control = step_means.mean(axis=1)
    return dict(profits=profits, mean_control=np.append(mean_control, mean_control[-1]),
                mode_discrepancy=float(gap), k_min_increment=k_inc, floored_steps=floored,
                **{name: np.array(v, dtype=float) for name, v in first.items()})


@pytest.mark.parametrize("price_mode", PRICE_MODES)
@pytest.mark.parametrize("use_mid_price", [True, False])
def test_simulate_matches_replication_loop(price_mode, use_mid_price):
    crowd, dev = _smooth_policy(GRIDS), _best_response(GRIDS, PARAMS)
    # a crowd that sells when long: within one step some pools take the
    # execute_swap leg and others the buy_swap leg
    wide = ControlBounds(-0.5, 0.5)
    mixed = _smooth_policy(GRIDS, level=-0.05, bounds=wide)
    # a crowd that buys, then sells: the two price modes part most mid-horizon
    round_trip = _smooth_policy(GRIDS, level=0.2, bounds=wide, trend=-0.4)
    params = dataclasses.replace(PARAMS, sigma0=2.0)
    cfg = SimConfig(n_traders=12, n_reps=5, price_mode=price_mode,
                    use_mid_price=use_mid_price)
    # common noise this loud pushes the traded price below p_min
    floor = (dataclasses.replace(PARAMS, sigma0=300.0), dataclasses.replace(cfg, p_min=50.0))
    for policy, deviant, bounds, prm, c in ((crowd, None, BOUNDS, params, cfg),
                                            (crowd, dev, BOUNDS, params, cfg),
                                            (dev, crowd, BOUNDS, params, cfg),
                                            (mixed, None, wide, params, cfg),
                                            (round_trip, None, wide, params, cfg),
                                            (crowd, dev, BOUNDS, *floor)):
        res = simulate(policy, c, GRIDS, bounds, prm, COSTS, LAW, deviant_policy=deviant,
                       seed=19)
        ref = _replication_loop(policy, deviant, c, GRIDS, prm, 19)
        assert ref.keys() == {f.name for f in dataclasses.fields(SimResult)}
        for name, want in ref.items():
            assert _same_bits(getattr(res, name), want), name
    assert res.floored_steps > 0


FUSED_CASES = {
    "aggregate": {},
    "aggregate-fill-at-price": dict(use_mid_price=False),
    "sequential": dict(price_mode="sequential"),
    "sequential-fill-at-price": dict(price_mode="sequential", use_mid_price=False),
    "price-floor": dict(sigma0=300.0, p_min=50.0),
    "several-chunks": dict(chunk=3),
    "n_traders=1": dict(n_traders=1),
    "n_t=1": dict(n_t=1),
    "sigma=0": dict(sigma=0.0),
    "phi=1": dict(phi=1.0),
    "n_a=1": dict(n_a=1),
}


@pytest.mark.parametrize("case", FUSED_CASES)
def test_deviation_gain_equals_two_pass_reference(monkeypatch, tmp_path, case):
    # one pass that draws each replication once must give the paired
    # difference of two separate simulate runs, bit for bit
    spec = dict(FUSED_CASES[case])
    if "chunk" in spec:
        _chunked(monkeypatch, spec.pop("chunk"))
    split = {cls: {k: spec.pop(k) for k in list(spec) if k in cls.__dataclass_fields__}
             for cls in (Grids, PoolParams)}
    grids = dataclasses.replace(GRIDS, **split[Grids])
    params = dataclasses.replace(PARAMS, **split[PoolParams])
    cfg = SimConfig(**{"n_traders": 4, "n_reps": 9, **spec})
    crowd, dev = _smooth_policy(grids), _best_response(grids, params)
    args = (cfg, grids, BOUNDS, params, COSTS, LAW)

    with_dev = simulate(crowd, *args, deviant_policy=dev, seed=17)
    without = simulate(crowd, *args, seed=17)
    ref = with_dev.profits[:, 0] - without.profits[:, 0]
    # the pass's arms are the two runs' trader-1 profits, although without a
    # report it skips the crowd's bookkeeping and, in aggregate mode, the venue
    _, arms = nplayer._simulate_arms(crowd, [dev, crowd], *args, seed=17, report=False)
    assert _same_bits(arms, np.stack([with_dev.profits[:, 0], without.profits[:, 0]]))
    drawn = _logged(monkeypatch, "substream", tmp_path / "draws")
    out = deviation_gain(crowd, dev, *args, seed=17)

    assert sorted(r for reps in drawn().values() for r in reps) == list(range(cfg.n_reps))
    assert _same_bits(out.gain, float(ref.mean()))
    assert _same_bits(out.stderr, float(ref.std(ddof=1) / np.sqrt(ref.size)))
    assert out.stderr > 0
    if case == "price-floor":
        assert with_dev.floored_steps > 0
