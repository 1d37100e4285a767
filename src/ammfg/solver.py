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
_walk moves several walkers in lockstep on one row of draws per step, each
with per-path totals of its own rewards. propagate pushes particles under the
policy (Euler-Maruyama) and reads off the mean control path and the exit
fraction; callers that push many times on one seed draw its normals and
starting sample once (propagate_noise). _walk returns per-step control sums
and exit counts, and propagate divides by n once. Inside a Picard session
with a twin (_fork.twin) a walked push is split at _fork.split(n): this
process walks particles [0, n2), the twin [n2, n), and _join adds the two
halves' sums in numpy's own pairwise order, so the mean path and exit
fraction are bitwise those of one walk over all n. A sandwich report's
solves share a private push log that holds that pair and replays, bit for
bit, a push whose controls provably match a logged one. evaluate is the matching strong-form
estimate of the policy's objective; it is the one-walker case of
_evaluate_walkers, which values several (policy, path) pairs under several
rewards in one walk, bitwise as lone calls would.
girsanov_evaluate estimates it on driftless paths reweighted by the
discrete Girsanov density; the clamp keeps the weights exact, as it is a
function of the increments dW and under the weighted measure dW - (a/sigma) dt
is Brownian. The two routes agree within Monte Carlo error, the package's
standing cross-check on the simulation layer.
"""
from __future__ import annotations

import functools
import hashlib
import math
import time
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import _fork
from .errors import DomainError, NumericalError, UsageError
from .grids import ControlBounds, Grids, InitialLaw, MeanControlPath, make_path
from .pool import PoolParams
from .rewards import CostSpec, RewardKind, bound_constant, reward, terminal_reward
from .streams import substream


@dataclass(frozen=True)
class Policy:
    """Feedback control table a*(t_k, x_j) with the value surface behind it.

    x_nodes is a uniform grid of at least 2 nodes, read by index arithmetic
    on the spacing _dx. controls has shape (n_t, n_x): row k applies on
    [t_k, t_{k+1}). values has shape (n_t+1, n_x) with values[n_t] the
    terminal reward; it is None for hand-built policies that skip the solver.

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
        object.__setattr__(self, "_dx", _uniform_spacing(np.asarray(self.x_nodes, dtype=float)))

    def control_at(self, k: int, x, record=None) -> np.ndarray:
        """Policy at step k, piecewise linear in x, clamped at the grid edges.

        A policy with switches hands record, when given, the lookup's own
        (k, cell, position in the cell, the cell's switch or NaN) per query.
        """
        nodes = self.x_nodes
        c = self.controls[k]
        # one owned copy of x becomes the position; the rest runs in place
        frac = np.array(x, dtype=float)
        frac -= nodes[0]
        frac /= self._dx
        np.clip(frac, 0.0, len(nodes) - 1.0, out=frac)
        j = frac.astype(np.int64)
        np.minimum(j, len(nodes) - 2, out=j)
        frac -= j
        left, right = c.take(j), c[1:].take(j)
        out = np.subtract(1.0, frac, out=np.empty_like(frac))  # an array even at 0-d
        out *= left
        out += right * frac
        if self.switches is None:
            return out
        sw = self.switches[k].take(j)
        if record is not None:
            record(k, j, frac, sw)
        # a NaN switch compares false: finite cells read the right node, then
        # queries left of their switch the left node; NaN cells keep the ramp
        np.copyto(out, right, where=sw == sw)
        np.copyto(out, left, where=frac < sw)
        return out


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


def _walk(policies, grids: Grids, x0: np.ndarray, noise, step, rewards=None, record=None):
    """The one Monte Carlo step loop, for several walkers in lockstep.

    Walker i starts at the clamped x0 and follows policies[i]; rewards[i],
    when given, lists the running rewards f(t, xs, a) whose per-path totals
    it accumulates. Each step k draws z = noise(k) once for every walker, then
    for each walker looks up the control a at its clamped states xs, sums it,
    adds f(t_k, xs, a) * dt to each total, moves xs to step(xs, a, z) and
    clamps it to the grid box. Returns the control sum per walker and step,
    the exit count per walker, the final states per walker and the totals,
    one list per walker. A non-finite control sum ends the walk at its step,
    every later sum left NaN: the caller refuses it (_refuse_non_finite)
    before it reads anything else.
    """
    lo, hi, t, dt = grids.x_min, grids.x_max, grids.t_nodes(), grids.dt
    xs = [np.clip(x0, lo, hi) for _ in policies]
    sums = np.full((len(policies), grids.n_t), np.nan)
    ever_out = np.zeros((len(policies), x0.size), bool)
    rewards = rewards or [()] * len(policies)
    totals = [[np.zeros(x0.size) for _ in fs] for fs in rewards]
    for k in range(grids.n_t):
        z = noise(k)
        for i, policy in enumerate(policies):
            a = policy.control_at(k, xs[i], record)
            sums[i, k] = a.sum()
            # states start finite and stay clamped: only a non-finite control spoils
            # them, so the walk ends here, before the next lookup makes them a bad index
            if not np.isfinite(sums[i, k]):
                return sums, ever_out.sum(axis=1), xs, totals
            for f, total in zip(rewards[i], totals[i]):
                total += f(t[k], xs[i], a) * dt
            xs[i] = step(xs[i], a, z)
            ever_out[i] |= (xs[i] < lo) | (xs[i] > hi)
            np.clip(xs[i], lo, hi, out=xs[i])
    return sums, ever_out.sum(axis=1), xs, totals


def _refuse_non_finite(sums: np.ndarray) -> None:
    """NumericalError at the first step whose control sum, of any walker, is not finite."""
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(sums)).all(axis=0))
    if bad.size:
        raise NumericalError(f"non-finite particle states at step {bad[0]}")


def _warn_exit(exit_fraction: float, stacklevel: int = 3) -> None:
    """Warn the public estimator's caller when over 1% of its paths hit the edges."""
    if exit_fraction > 0.01:
        warnings.warn(f"{exit_fraction:.1%} of particles hit the state-grid edges; "
                      "widen [x_min, x_max]", stacklevel=stacklevel)


def _replay_or_walk(log: Mapping, policy: Policy, walk):
    """(mean control per step, exit fraction) of a push: replayed from the log, else walked.

    A log belongs to one report, whose grids, sigma and noise pair never
    change, so records (m, exit fraction, lo, hi) are keyed by the digests of
    the policy's controls and NaN switch mask alone. lo and hi bracket each
    finite switch s by the positions in its cell at its step: the largest
    below s, the smallest at or above. A same-key policy with every finite
    switch in its (lo, hi] reads, by induction over the steps, the same
    control for every particle, so the record is its push bit for bit.
    walk(record, brackets) fills lo and hi, one entry per finite switch, in
    place over all the push's particles.
    """
    sw = np.empty(0) if policy.switches is None else policy.switches
    finite = ~np.isnan(sw)
    key = tuple(hashlib.sha256(np.ascontiguousarray(p)).digest() for p in (policy.controls, finite))
    s = sw[finite]
    for m, exit_fraction, lo, hi in log.get(key, ()):
        if np.all(lo < s) and np.all(s <= hi):
            return m, exit_fraction
    if not isinstance(log, dict):  # a read-only view of a log: walk unlogged
        return walk()
    lo, hi = np.full(s.size, -np.inf), np.full(s.size, np.inf)
    cell = np.full(finite.shape, -1)
    cell[finite] = np.arange(s.size)  # a finite switch's entry in lo and hi

    def record(k, j, frac, sw_at):
        inside = np.flatnonzero(sw_at == sw_at)  # the queries in finite-switch cells
        if inside.size:
            at, frac = cell[k].take(j[inside]), frac[inside]
            below = frac < sw_at[inside]
            np.maximum.at(lo, at[below], frac[below])
            np.minimum.at(hi, at[~below], frac[~below])

    m, exit_fraction = walk(record, ((np.maximum, lo), (np.minimum, hi)))
    log.setdefault(key, []).append((m, exit_fraction, lo, hi))
    return m, exit_fraction


def _join(twin, policy: Policy, sums: np.ndarray, exits: float, brackets, rest, own: float):
    """Swap one push's half with the twin's: the whole push's (control sums, exit count).

    Sums join as the parent's first half plus the twin's second, numpy's own
    order for a sum over all the particles (_fork.split); exit counts are
    exact; each bracket array joins in place under its combine (max or min,
    exact too). A message opens with its length and its policy's
    fingerprint, which the two sides must share; if they differ, or the twin
    is gone, the parent walks the second half itself (rest(), which only the
    parent calls) and the twin leaves. own is this side's CPU time on its
    half, by which the parent judges whether the twin pays (_fork.twin._pace).
    """
    sw = np.zeros(0) if policy.switches is None else policy.switches
    parts = [[exits], sums, *(b for _, b in brackets)]
    size = 3 + sum(np.size(p) for p in parts)
    mine = np.concatenate([[size, policy.controls.sum(), np.sum(sw, where=sw == sw)], *parts])
    got = twin.swap(mine.tobytes(), head=3 * mine.itemsize, own=own)
    if got is None:
        second, more = rest()  # its record fills the brackets in place
        return sums + second, exits + more
    theirs, n_t = np.frombuffer(got), sums.size
    first, second = (sums, theirs[4:4 + n_t]) if twin.first else (theirs[4:4 + n_t], sums)
    at = 4 + n_t
    for combine, b in brackets:
        combine(b, theirs[at:at + b.size], out=b)
        at += b.size
    return first + second, exits + theirs[3]


def propagate(policy: Policy, grids: Grids, bounds: ControlBounds, params: PoolParams,
              law0: InitialLaw, seed: int | None = None, noise=None,
              _log: Mapping | None = None) -> tuple[MeanControlPath, float]:
    """Euler-Maruyama ensemble under the policy; returns (mean path, exit fraction).

    The exit fraction is the share of particles ever clamped to the grid box.
    The mean path's last node repeats the final interval's mean so the
    n_t+1-node trapezoid convention applies. noise is the pair
    propagate_noise(seed, grids, law0) returns, drawn here when not given.

    _log is a sandwich report's private push log, a dict its solves share:
    _log["noise"] is the report's pair, read in place of noise, and every
    other entry lists push records (_replay_or_walk). A push provably reading
    a logged one's controls returns its results unwalked. Logging slows a
    walk, so a lone push passes no log, and a push whose walk no later push
    would read passes a read-only view (types.MappingProxyType): it replays
    from the log but adds no record.
    """
    seed, n = grids.seed if seed is None else seed, grids.n_particles
    if _log is not None:
        noise = _log["noise"]
    elif noise is None:
        noise = propagate_noise(seed, grids, law0)
    shapes, expected = [np.shape(block) for block in noise], [(grids.n_t, n), (n,)]
    if shapes != expected:
        raise UsageError(f"propagate noise has shapes {shapes}, expected {expected}")
    normals, starts = noise
    dt, scale = grids.dt, params.sigma * np.sqrt(grids.dt)
    twin, n2 = _fork.session(n), _fork.split(n)

    def half(part: slice, record):
        """This walk over particles part: (control sum per step, exit count)."""
        (sums,), (exits,), _, _ = _walk(
            [policy], grids, starts[part], lambda k: normals[k, part],
            lambda xs, a, z: xs + a * dt + scale * z, record=record)
        return sums, float(exits)

    def walk(record=None, brackets=()):
        """The push's (m, exit fraction); brackets, (combine, array) pairs record fills, join."""
        if twin is None:
            sums, exits = half(slice(None), record)
        else:
            cpu = time.thread_time()
            sums, exits = half(slice(0, n2) if twin.first else slice(n2, n), record)
            sums, exits = _join(twin, policy, sums, exits, brackets,
                                lambda: half(slice(n2, n), record), time.thread_time() - cpu)
        _refuse_non_finite(sums)
        return sums / n, exits / n

    m, exit_fraction = walk() if _log is None else _replay_or_walk(_log, policy, walk)
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
    shape (n_particles,). It is the one-walker case of _evaluate_walkers.
    """
    return _evaluate_walkers([(policy, path, [kind])], grids, bounds, params, costs, law0,
                             seed, reward_fn)[0][0]


def _evaluate_walkers(walkers, grids: Grids, bounds: ControlBounds, params: PoolParams,
                      costs: CostSpec, law0: InitialLaw, seed: int | None = None,
                      reward_fn=None):
    """evaluate's reports for (policy, path, [kind, ...]) walkers, in one walk.

    Every walker reads evaluate's starting sample and its one row of normals
    per step, so each report is bitwise the lone evaluate call's. Returns one
    ValueReport per reward of each walker; a walker over 1% exit warns once.
    """
    rewards = []
    for _, path, kinds in walkers:
        _check_path(path, grids)
        fs = [_running_reward(reward_fn, kind, grids, bounds, params, costs) for kind in kinds]
        rewards.append([lambda t, xs, a, f=f, path=path: f(t, xs, a, path) for f in fs])
    seed = grids.seed if seed is None else seed
    n, dt, scale = grids.n_particles, grids.dt, params.sigma * np.sqrt(grids.dt)
    gen = substream(seed, "evaluate")
    # one row of normals per step, read by every walker, keeps a single row alive
    sums, exits, xs, totals = _walk(
        [policy for policy, _, _ in walkers], grids,
        law0.sample(n, substream(seed, "evaluate-x0")), lambda k: gen.standard_normal(n),
        lambda xs, a, z: xs + a * dt + scale * z, rewards)
    _refuse_non_finite(sums)
    reports = []
    for x_end, walker_totals, exit_fraction in zip(xs, totals, exits / n):
        _warn_exit(exit_fraction, stacklevel=4)  # at the caller of evaluate or the report
        terminal, exit_fraction = terminal_reward(x_end, costs), float(exit_fraction)
        reports.append([])
        for total in walker_totals:
            total += terminal
            if not np.all(np.isfinite(total)):
                raise NumericalError("non-finite path objective in evaluate")
            value = float(total.mean())
            reports[-1].append(ValueReport(value=value, stderr=_stderr(total), n_paths=n,
                                           bias_budget=_bias_budget(grids, value),
                                           exit_fraction=exit_fraction))
    return reports


def girsanov_evaluate(policy: Policy, path: MeanControlPath, kind: RewardKind,
                      grids: Grids, bounds: ControlBounds, params: PoolParams,
                      costs: CostSpec, law0: InitialLaw, seed: int | None = None) -> ValueReport:
    """Weak-form estimate: driftless paths reweighted by the Girsanov density.

    Simulates dX = sigma dW, clamped to the grid box as evaluate's paths are,
    evaluates the policy's control along it, and weights each path by
    exp(sum (a/sigma) dW - 1/2 sum (a/sigma)^2 dt). Requires sigma > 0. The
    weights stay exact under the clamp: it is a function of the increments dW,
    and under the weighted measure dW - (a/sigma) dt is Brownian, so the
    clamped driftless walk has the law of evaluate's clamped drifted walk.
    Agreement with evaluate (within combined Monte Carlo error) is the
    package's independent check that drift handling is correct. It takes no
    reward_fn: it values the built-in reward of kind.
    """
    _check_path(path, grids)
    if params.sigma <= 0:
        raise DomainError("girsanov_evaluate needs sigma > 0")
    f = _running_reward(None, kind, grids, bounds, params, costs)
    seed = grids.seed if seed is None else seed
    n, dt, sig = grids.n_particles, grids.dt, params.sigma
    gen, logw = substream(seed, "girsanov"), np.zeros(n)

    def step(xs, a, dw):
        nonlocal logw
        logw += (a / sig) * dw - 0.5 * (a / sig) ** 2 * dt
        return xs + sig * dw

    sums, (exits,), (x_end,), ((total,),) = _walk(
        [policy], grids, law0.sample(n, substream(seed, "girsanov-x0")),
        lambda k: np.sqrt(dt) * gen.standard_normal(n), step,
        [[lambda t, xs, a: f(t, xs, a, path)]])
    _refuse_non_finite(sums)
    exit_fraction = exits / n
    _warn_exit(exit_fraction)
    total += terminal_reward(x_end, costs)
    weights = np.exp(logw)
    est = weights * total
    if not np.all(np.isfinite(est)):
        raise NumericalError("non-finite weighted objective in girsanov_evaluate")
    value = float(est.mean())
    return ValueReport(value=value, stderr=_stderr(est), n_paths=n,
                       bias_budget=_bias_budget(grids, value), exit_fraction=float(exit_fraction),
                       weight_mean=float(weights.mean()), weight_stderr=_stderr(weights))
