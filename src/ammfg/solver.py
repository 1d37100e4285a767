"""Best response to a fixed crowd flow: dynamic programming and evaluation.

solve_hjb runs backward induction on the (time, inventory) lattice with an
exhaustive search over the control grid. The Gaussian shock is integrated
with Gauss-Hermite quadrature, the continuation value is piecewise-linear in
x with clamped ends (queries beyond the grid read the edge value), and
argmax ties break toward the control of smallest magnitude, then toward the
smaller value. On the uniform grid that expectation is one banded product
per step: edge-padded windows of the value row times one (taps, n_a) kernel.
The running reward is evaluated in blocks of ceil(sqrt(n_t+1)) time nodes,
so the solver never holds the whole (n_t+1, n_x, n_a) reward lattice. Each
block takes two passes. The backward recursion keeps, per step, only what the
step before it reads (the value row) and what the second pass reads (the
argmax, and q there and at four entries around it). The second pass is vectorised over the
block's steps: it refines interior controls to the vertex of a parabola and
places the switches of a bang-bang row. It applies the per-step formulas
elementwise, so the split moves no bit.

propagate, evaluate and girsanov_evaluate call one Monte Carlo walk, _walk,
with one clamping rule: paths clamp to the grid box, as the solver's
continuation reads do, and each warns when over 1% of its paths hit the edges.
propagate pushes particles under the policy (Euler-Maruyama) and reads off the
mean control path and the exit fraction; callers that push many times on one
seed draw its normals and starting sample once (propagate_noise) and may keep
a push log that replays, bit for bit, a push whose controls provably match a
logged one. evaluate is the matching strong-form estimate of the policy's
objective. girsanov_evaluate estimates it on driftless paths reweighted by the
discrete Girsanov density; the clamp keeps the weights exact, as it is a
function of the increments dW and under the weighted measure dW - (a/sigma) dt
is Brownian. The two routes agree within Monte Carlo error, the package's
standing cross-check on the simulation layer.
"""
from __future__ import annotations

import functools
import hashlib
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .grids import ControlBounds, Grids, InitialLaw, MeanControlPath, make_path
from .pool import PoolParams
from .rewards import CostSpec, RewardKind, bound_constant, reward, terminal_reward
from .streams import substream


@dataclass(frozen=True)
class Policy:
    """Feedback control table a*(t_k, x_j) with the value surface behind it.

    x_nodes is a uniform grid of at least 2 nodes, read by index arithmetic.
    controls has shape (n_t, n_x): row k applies on [t_k, t_{k+1}). values
    has shape (n_t+1, n_x) with values[n_t] the terminal reward; it is None
    for hand-built policies that never went through the solver.

    switches has shape (n_t, n_x-1). Where finite, cell j of row k contains
    a sharp control switch at relative position switches[k, j] in (0, 1):
    queries left of it read the left node's control, queries right of it the
    right node's. The solver fills it from the indifference point of the two
    competing controls, so the switching curve of a bang-bang policy is
    located to sub-cell accuracy instead of snapping to the nearest node
    (snapping makes the induced mean flow a step function of the crowd path,
    which can lock the equilibrium iteration into a two-cycle). NaN cells
    fall back to linear interpolation.
    """

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    controls: np.ndarray
    values: np.ndarray | None = None
    switches: np.ndarray | None = None

    def __post_init__(self):
        _uniform_spacing(np.asarray(self.x_nodes, dtype=float))

    def control_at(self, k: int, x, record=None) -> np.ndarray:
        """Policy at step k, piecewise linear in x, clamped at the grid edges.

        A policy with switches hands record, when given, the lookup's own
        (k, cell, position in the cell, the cell's switch or NaN) per query.
        """
        nodes = self.x_nodes
        c = self.controls[k]
        u = (np.asarray(x, dtype=float) - nodes[0]) / (nodes[1] - nodes[0])
        u = np.clip(u, 0.0, len(nodes) - 1.0)
        j = np.minimum(u.astype(np.int64), len(nodes) - 2)
        frac = u - j
        left, right = c[j], c[j + 1]
        ramp = left * (1.0 - frac) + right * frac
        if self.switches is None:
            return ramp
        # a NaN switch compares false, so only the isnan test routes to the ramp
        sw = self.switches[k][j]
        if record is not None:
            record(k, j, frac, sw)
        return np.where(frac < sw, left, np.where(np.isnan(sw), ramp, right))


@dataclass(frozen=True)
class ValueReport:
    """Monte Carlo value estimate with its error budget.

    stderr is the i.i.d. standard error; bias_budget is the declared
    discretization allowance O(dt + dx^2) scaled by the value magnitude.
    exit_fraction is the share of paths ever clamped to the grid box.
    weight_mean/weight_stderr are present only for weak-form estimates.
    """

    value: float
    stderr: float
    n_paths: int
    bias_budget: float = 0.0
    exit_fraction: float = 0.0
    weight_mean: float | None = None
    weight_stderr: float | None = None


def _uniform_spacing(nodes: np.ndarray) -> float:
    if nodes.size < 2:
        raise UsageError("state grid needs at least 2 nodes")
    d = np.diff(nodes)
    if not np.allclose(d, d[0], rtol=1e-9, atol=0):
        raise UsageError("state grid must be uniform")
    return float(d[0])


def _expectation_kernel(x_nodes: np.ndarray, drift: np.ndarray, scale: float, n_quad: int):
    """(reads, kernel): the Gauss-Hermite mean of V(x_j + drift[i] + scale*Z), Z standard
    normal and V piecewise linear with clamped ends, is (V[reads] @ kernel)[j, i].

    Row j of reads (n_x, taps) is node j's window of V, edge-padded by index
    clamping; kernel (taps, n_a) is the same at every node. Offsets are capped
    at +-n_x cells, which changes no read.
    """
    z, w = np.polynomial.hermite_e.hermegauss(n_quad)  # probabilists' nodes: Z ~ N(0, 1)
    w = w / w.sum()
    n_x = len(x_nodes)
    u = np.clip((drift[:, None] + scale * z) / _uniform_spacing(x_nodes), -n_x, n_x)
    cell = np.floor(u)
    frac = u - cell
    lo, hi = min(int(cell.min()), 0), max(int(cell.max()) + 1, 0)
    rows = (cell - lo).astype(np.int64)
    cols = np.arange(len(drift))[:, None]
    kernel = np.zeros((hi - lo + 1, len(drift)))
    np.add.at(kernel, (rows, cols), w * (1.0 - frac))
    np.add.at(kernel, (rows + 1, cols), w * frac)
    reads = np.clip(np.arange(n_x)[:, None] + np.arange(lo, hi + 1), 0, n_x - 1)
    return reads, kernel


def _stderr(samples: np.ndarray) -> float:
    """Standard error of the mean of i.i.d. samples; 0 for a single sample."""
    n = samples.size
    return float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _bias_budget(grids: Grids, value: float) -> float:
    """Discretization allowance O(dt + dx^2), scaled by the value magnitude."""
    return (grids.dt + _uniform_spacing(grids.x_nodes())**2) * max(1.0, abs(value))


def _check_path(path: MeanControlPath, grids: Grids) -> None:
    if path.times.shape != (grids.n_t + 1,) or abs(path.times[-1] - grids.horizon) > 1e-12:
        raise UsageError("flow path does not match the time grid")


def _running_reward(reward_fn, kind: RewardKind, grids: Grids, bounds: ControlBounds,
                    params: PoolParams, costs: CostSpec):
    """reward_fn, else the built-in reward of ``kind``, as f(t, x, a, path).

    The bound constants are formed either way, so inadmissible control
    bounds are refused before any work is done.
    """
    consts = bound_constant(params, costs, bounds, grids.horizon, kind.denom_exp)
    return reward_fn or functools.partial(reward, kind, params=params, costs=costs,
                                          consts=consts)


def solve_hjb(path: MeanControlPath, kind: RewardKind, grids: Grids,
              bounds: ControlBounds, params: PoolParams, costs: CostSpec,
              reward_fn=None) -> Policy:
    """Backward induction for the best response to ``path``.

    reward_fn, when given, replaces the built-in running reward. It is called
    once per block of b = ceil(sqrt(n_t+1)) consecutive time nodes, latest
    block first, so that every node is seen exactly once: as
    reward_fn(t, x, a, path) with t of shape (b, 1, 1), x of shape (1, n_x, 1)
    and a of shape (1, 1, n_a), and its result must broadcast to
    (b, n_x, n_a). The first block called ends at t_{n_t}; the last one may be
    shorter. The terminal reward is always -l(x).

    Each block's steps are solved in two passes. The backward loop computes
    q = dt * reward + E[V_{k+1}], its tie-broken argmax and V_k = max q, and
    refuses a non-finite V_k at its step. It records q at the argmax and at
    the four entries around it that _refine reads. _refine then sets the
    block's controls and switches in one vectorised pass over the cells that
    need them.
    """
    _check_path(path, grids)
    f = _running_reward(reward_fn, kind, grids, bounds, params, costs)
    t, x, a, dt = grids.t_nodes(), grids.x_nodes(), bounds.grid(grids.n_a), grids.dt
    n_t, n_x, n_a = grids.n_t, grids.n_x, grids.n_a

    # tie-break order: smallest |a| first, then smaller a; argmax picks the
    # first maximal entry, so scanning in this order implements the rule. On a
    # grid with a_min >= 0 that order is the grid's own and q needs no copy.
    order = np.lexsort((a, np.abs(a)))
    reorder = not np.array_equal(order, np.arange(n_a))

    values = np.empty((n_t + 1, n_x))
    controls = np.empty((n_t, n_x))
    switches = np.full((n_t, n_x - 1), np.nan)
    reads, kernel = _expectation_kernel(x, dt * a, params.sigma * np.sqrt(dt), grids.n_quad)
    values[-1] = terminal_reward(x, costs)
    # the reward is evaluated one block of time nodes at a time: sqrt-sized
    # blocks hold ~sqrt(n_t) rows of the (n_t+1, n_x, n_a) lattice for
    # ~sqrt(n_t) calls, and the reward is elementwise in t, so the bits do
    # not depend on the blocking
    block = math.isqrt(n_t) + 1  # ceil(sqrt(n_t + 1)), at least 2
    # per step of a block: the argmax, and q at flat offsets 0, -1, +1, -n_a,
    # +n_a from it: at (j, best), (j, best-1), (j, best+1), (j-1, best[j]) and
    # (j+1, best[j]). An offset that leaves node j's row (best at a bound) or
    # q itself (j at a grid end) reads a wrong or clipped entry, which _refine
    # never reads.
    best = np.empty((block, n_x), dtype=np.min_scalar_type(n_a - 1))
    near = np.empty((block, 5, n_x))
    flat = np.arange(n_x) * n_a + np.array([0, -1, 1, -n_a, n_a])[:, None]
    q = np.empty((n_x, n_a))
    q_flat = q.reshape(-1)
    for stop in range(n_t + 1, 0, -block):
        start = max(stop - block, 0)
        running = None  # one block alive at a time: drop the last before the next
        running = np.broadcast_to(
            f(t[start:stop, None, None], x[None, :, None], a[None, None, :], path),
            (stop - start, n_x, n_a))
        steps = slice(start, min(stop, n_t))
        for k in range(steps.stop - 1, start - 1, -1):
            i = k - start
            np.multiply(running[i], dt, out=q)
            q += values[k + 1].take(reads) @ kernel
            best[i] = order[q[:, order].argmax(axis=1)] if reorder else q.argmax(axis=1)
            q_flat.take(flat + best[i], out=near[i], mode="clip")
            values[k] = near[i, 0]
            if not np.isfinite(values[k]).all():
                raise NumericalError(f"non-finite value surface at step {k}")
        n = steps.stop - start
        _refine(a, best[:n], near[:n], controls[steps], switches[steps])
    return Policy(t_nodes=t, x_nodes=x, controls=controls, values=values,
                  switches=switches)


def _refine(a, best, near, controls, switches) -> None:
    """solve_hjb's pass over a block of steps: fills their controls and switches.

    best is the argmax index per (step, node) and near the q entries
    solve_hjb recorded at and around each argmax. A control starts at its grid
    argmax a[best]. Where the argmax is interior and at least one neighbour
    sits strictly below it, the control moves to the vertex of the parabola
    through the three: an exact two-way tie puts it at the midpoint, and
    boundary (bang-bang) solutions keep their grid point. The vertex offset is
    <= da/2 by construction, hence stays inside the bounds. Without it the
    best-response map jumps by da under tiny changes of the crowd path and the
    damped fixed-point iteration can lock into a two-cycle above tolerance.
    Where the control jumps by more than one grid step between neighbouring
    x-nodes, the cell's switch sits at the indifference point of the two
    competing controls (Q is linear in x within a cell, so the crossing is
    exact).
    """
    n_a = len(a)
    da = a[1] - a[0] if n_a > 1 else 0.0
    np.take(a, best, out=controls)
    k, j = np.nonzero(np.abs(controls[:, :-1] - controls[:, 1:]) > 1.5 * da)
    if k.size:
        dl = near[k, 0, j] - near[k, 3, j + 1]  # q[j, best[j]] - q[j, best[j+1]]
        dr = near[k, 4, j] - near[k, 0, j + 1]  # q[j+1, best[j]] - q[j+1, best[j+1]]
        span = dl - dr
        s = np.where(span > 0, dl / np.where(span > 0, span, 1.0), 0.5)
        switches[k, j] = np.clip(s, 0.0, 1.0)
    k, j = np.nonzero((best > 0) & (best < n_a - 1))
    if da > 0 and k.size:
        v, lo, hi = near[k, 0, j], near[k, 1, j], near[k, 2, j]
        denom = 2.0 * v - lo - hi
        refine = ((lo < v) | (hi < v)) & (denom > 0)
        offset = np.where(refine, (hi - lo) / np.where(denom > 0, 2.0 * denom, 1.0), 0.0)
        controls[k, j] += offset * da
        if np.any((a == 0) & np.signbit(a)):
            # a row with an interior argmax adds offset * da at every node, +0.0
            # off the refined ones, and that turns a -0.0 grid point into +0.0
            controls[np.unique(k)] += 0.0


def propagate_noise(seed: int, grids: Grids, law0: InitialLaw) -> tuple[np.ndarray, np.ndarray]:
    """The read-only draws propagate reads: (normals, starts).

    normals is the (n_t, n_particles) block, row k at step k; starts is the
    (n_particles,) sample of law0. Every push with one (seed, grids, law0)
    reads this same pair (common random numbers), so a caller that pushes
    many times draws it once and passes it to each propagate call.
    """
    normals = substream(seed, "propagate").standard_normal((grids.n_t, grids.n_particles))
    starts = law0.sample(grids.n_particles, substream(seed, "law0"))
    normals.flags.writeable = starts.flags.writeable = False
    return normals, starts


def _walk(policy: Policy, grids: Grids, x0: np.ndarray, step, reward=None, record=None):
    """The one Monte Carlo step loop: (mean control per step, exit fraction, states, totals).

    Each step k looks up the control a at the clamped states xs, refuses a
    non-finite one, adds reward(t_k, xs, a) * dt to the totals (None without a
    reward), then moves xs to step(k, xs, a) and clamps it to the grid box.
    """
    xs = np.clip(x0, grids.x_min, grids.x_max)
    t, dt, m = grids.t_nodes(), grids.dt, np.empty(grids.n_t)
    total = None if reward is None else np.zeros(xs.size)
    ever_out = np.zeros(xs.size, dtype=bool)
    for k in range(grids.n_t):
        a = policy.control_at(k, xs, record)
        m[k] = a.mean()
        # states start finite and stay clamped: only a non-finite control spoils
        # them, refused here before the next lookup makes them a bad index
        if not np.isfinite(m[k]):
            raise NumericalError(f"non-finite particle states at step {k}")
        if reward is not None:
            total += reward(t[k], xs, a) * dt
        xs = step(k, xs, a)
        ever_out |= (xs < grids.x_min) | (xs > grids.x_max)
        np.clip(xs, grids.x_min, grids.x_max, out=xs)
    return m, float(ever_out.mean()), xs, total


def _warn_exit(exit_fraction: float) -> None:
    """Warn the public estimator's caller when over 1% of its paths hit the edges."""
    if exit_fraction > 0.01:
        warnings.warn(f"{exit_fraction:.1%} of particles hit the state-grid edges; "
                      "widen [x_min, x_max]", stacklevel=3)


def _replay_or_walk(replay: Mapping, policy: Policy, inputs: tuple, walk):
    """(mean control per step, exit fraction) of a push: replayed from the log, else walked.

    Records (m, exit fraction, lo, hi) are keyed by the push's grids and sigma
    (the log's noise pair is fixed) and the digests of the policy's controls,
    x-nodes and NaN switch mask. lo and hi bracket each finite switch s by the
    positions in its cell at its step: the largest below s, the smallest at or
    above. A same-key policy with every finite switch in its (lo, hi] reads,
    by induction over the steps, the same control for every particle, so the
    record is its push bit for bit.
    """
    sw = np.empty(0) if policy.switches is None else policy.switches
    finite = ~np.isnan(sw)
    key = inputs + tuple((p.shape, p.dtype.str, hashlib.sha256(np.ascontiguousarray(p)).digest())
                         for p in (policy.controls, policy.x_nodes, finite))
    s = sw[finite]
    for m, exit_fraction, lo, hi in replay.get(key, ()):
        if np.all(lo < s) and np.all(s <= hi):
            return m, exit_fraction
    if not isinstance(replay, dict):  # a read-only view of a log: walk unlogged
        return walk()
    lo, hi = np.full(finite.shape, -np.inf), np.full(finite.shape, np.inf)

    def record(k, j, frac, sw_at):
        inside = np.flatnonzero(sw_at == sw_at)  # the queries in finite-switch cells
        if inside.size:
            j, frac = j[inside], frac[inside]
            below = frac < sw_at[inside]
            np.maximum.at(lo[k], j[below], frac[below])
            np.minimum.at(hi[k], j[~below], frac[~below])

    m, exit_fraction = walk(record)
    replay.setdefault(key, []).append((m, exit_fraction, lo[finite], hi[finite]))
    return m, exit_fraction


def propagate(policy: Policy, grids: Grids, bounds: ControlBounds, params: PoolParams,
              law0: InitialLaw, seed: int | None = None, noise=None,
              replay: Mapping | None = None) -> tuple[MeanControlPath, float]:
    """Euler-Maruyama ensemble under the policy; returns (mean path, exit fraction).

    The exit fraction is the share of particles ever clamped to the grid box.
    The mean path's last node repeats the final interval's mean so the
    n_t+1-node trapezoid convention applies. noise is the pair
    propagate_noise(seed, grids, law0) returns, drawn here when not given.
    replay is a push log (a dict, empty at first) tied to the noise pair of its
    first push, so later pushes must pass that same pair: a push provably
    reading a logged one's controls returns its results unwalked
    (_replay_or_walk). Logging slows a walk, so a lone push passes none, and a
    push whose walk no later push would read passes a read-only view of the
    log (types.MappingProxyType): it replays from the log but adds no record.
    """
    seed, n = grids.seed if seed is None else seed, grids.n_particles
    if noise is None:
        noise = propagate_noise(seed, grids, law0)
    shapes, expected = [np.shape(block) for block in noise], [(grids.n_t, n), (n,)]
    if shapes != expected:
        raise UsageError(f"propagate noise has shapes {shapes}, expected {expected}")
    normals, starts = noise
    dt, scale = grids.dt, params.sigma * np.sqrt(grids.dt)

    def walk(record=None):
        return _walk(policy, grids, starts, lambda k, xs, a: xs + a * dt + scale * normals[k],
                     record=record)[:2]

    if replay is not None:
        if isinstance(replay, dict):
            replay.setdefault("noise", noise)
        if replay.get("noise", noise) is not noise:
            raise UsageError("a push log holds the pushes of one noise pair; "
                             "this push passes another")
    m, exit_fraction = walk() if replay is None else _replay_or_walk(
        replay, policy, (grids, params.sigma), walk)
    _warn_exit(exit_fraction)
    return make_path(np.append(m, m[-1]), grids, bounds, params.x0), exit_fraction


def evaluate(policy: Policy, path: MeanControlPath, kind: RewardKind, grids: Grids,
             bounds: ControlBounds, params: PoolParams, costs: CostSpec,
             law0: InitialLaw, seed: int | None = None, reward_fn=None) -> ValueReport:
    """Strong-form Monte Carlo estimate of the policy's objective.

    Left-endpoint sampling of the running reward (O(dt) bias, declared in
    bias_budget together with the O(dx^2) interpolation term). Two calls with
    the same grids/seed share every random number, so estimates for different
    reward kinds are paired. reward_fn, when given, replaces the built-in
    running reward; it is called once per step, with a scalar t and x, a of
    shape (n_particles,).
    """
    _check_path(path, grids)
    f = _running_reward(reward_fn, kind, grids, bounds, params, costs)
    seed = grids.seed if seed is None else seed
    n, dt, scale = grids.n_particles, grids.dt, params.sigma * np.sqrt(grids.dt)
    gen = substream(seed, "evaluate")
    # one row of normals per step keeps a single row alive
    _, exit_fraction, xs, total = _walk(
        policy, grids, law0.sample(n, substream(seed, "evaluate-x0")),
        lambda k, xs, a: xs + a * dt + scale * gen.standard_normal(n),
        lambda t, xs, a: f(t, xs, a, path))
    _warn_exit(exit_fraction)
    total += terminal_reward(xs, costs)
    if not np.all(np.isfinite(total)):
        raise NumericalError("non-finite path objective in evaluate")
    value = float(total.mean())
    return ValueReport(value=value, stderr=_stderr(total), n_paths=n,
                       bias_budget=_bias_budget(grids, value), exit_fraction=exit_fraction)


def girsanov_evaluate(policy: Policy, path: MeanControlPath, kind: RewardKind,
                      grids: Grids, bounds: ControlBounds, params: PoolParams,
                      costs: CostSpec, law0: InitialLaw, seed: int | None = None,
                      reward_fn=None) -> ValueReport:
    """Weak-form estimate: driftless paths reweighted by the Girsanov density.

    Simulates dX = sigma dW, clamped to the grid box as evaluate's paths are,
    evaluates the policy's control along it, and weights each path by
    exp(sum (a/sigma) dW - 1/2 sum (a/sigma)^2 dt). Requires sigma > 0. The
    weights stay exact under the clamp: it is a function of the increments dW,
    and under the weighted measure dW - (a/sigma) dt is Brownian, so the
    clamped driftless walk has the law of evaluate's clamped drifted walk.
    Agreement with evaluate (within combined Monte Carlo error) is the
    package's independent check that drift handling is correct. reward_fn is
    called as in evaluate.
    """
    _check_path(path, grids)
    if params.sigma <= 0:
        raise DomainError("girsanov_evaluate needs sigma > 0")
    f = _running_reward(reward_fn, kind, grids, bounds, params, costs)
    seed = grids.seed if seed is None else seed
    n, dt, sig = grids.n_particles, grids.dt, params.sigma
    gen, logw = substream(seed, "girsanov"), np.zeros(n)

    def step(k, xs, a):
        nonlocal logw
        dw = np.sqrt(dt) * gen.standard_normal(n)
        logw += (a / sig) * dw - 0.5 * (a / sig) ** 2 * dt
        return xs + sig * dw

    _, exit_fraction, xs, total = _walk(
        policy, grids, law0.sample(n, substream(seed, "girsanov-x0")), step,
        lambda t, xs, a: f(t, xs, a, path))
    _warn_exit(exit_fraction)
    total += terminal_reward(xs, costs)
    weights = np.exp(logw)
    est = weights * total
    if not np.all(np.isfinite(est)):
        raise NumericalError("non-finite weighted objective in girsanov_evaluate")
    value = float(est.mean())
    return ValueReport(value=value, stderr=_stderr(est), n_paths=n,
                       bias_budget=_bias_budget(grids, value), exit_fraction=exit_fraction,
                       weight_mean=float(weights.mean()), weight_stderr=_stderr(weights))
