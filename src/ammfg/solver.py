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
elementwise, so the split moves no bit. The expectation stencil is built
once per distinct grid, drift and noise scale (_expectation_kernel). Inside a
Picard session with a twin (_fork.twin) each best response is a pipeline
(_Hand): this process runs the backward loop on reward rows that the twin
evaluates, and the twin refines each recorded block; both hand rows over
through shared memory, bit for bit.

Policy.control_at interpolates in x. A bang-bang row whose ramps round to
its plateaus, one finite switch between a plateau vL and a plateau vR
(_thresholds), it reads as one threshold X instead: x < X reads vL, x >= X
vR, NaN NaN, one comparison and a gather from three entries. X is the least
float the interpolation sends to vR, found once per policy by bisection with
the interpolation itself as the oracle, so both read the same bits. A
record hook on such a row sees the nearest query on each side of X, which
bound the switch as all the queries do.

propagate, evaluate and girsanov_evaluate call one Monte Carlo walk, _walk,
with one clamping rule: paths clamp to the grid box, as the solver's
continuation reads do, and each warns when over 1% of its paths hit the edges.
_walk moves several walkers in lockstep on one row of draws per step, each
with per-path totals of its own rewards. Walkers that provably read the same
controls share one walk: a policy bytewise equal to an earlier one outright,
and one that differs from it in finite switches only while, step by step,
each of those lies inside the bracket of the walk's positions in its cell
(_fold_brackets, the rule by which the push log replays). A shared walk looks
up, steps and totals each distinct reward once for all its walkers; a lone
walker records no brackets. propagate pushes particles under the
policy (Euler-Maruyama) and reads off the mean control path and the exit
fraction; callers that push many times on one seed draw its normals and
starting sample once (propagate_noise). _walk returns per-step control sums
and exit counts, and propagate divides by n once. Inside a Picard session
with a twin (_fork.twin) a walked push is split at _fork.split(n): this
process walks particles [0, n2), the twin [n2, n), and _join adds the two
halves' sums in numpy's own pairwise order, so the mean path and exit
fraction are bitwise those of one walk over all n. A sandwich report's
solves share a private push log that holds that pair and replays, bit for
bit, a push whose controls provably match a logged one. evaluate is the
matching strong-form estimate of the policy's objective; it is the
one-walker case of _evaluate_walkers, which values several (policy, path)
pairs under several rewards in one call, bitwise as lone calls would; the
built-in rewards on one path form its base term once per walk and step.
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
from dataclasses import dataclass, field

import numpy as np

from . import _fork
from .errors import DomainError, NumericalError, UsageError
from .grids import ControlBounds, Grids, InitialLaw, MeanControlPath, make_path
from .pool import PoolParams
from .rewards import (CostSpec, RewardKind, _base, _lam, bound_constant, reward,
                      terminal_reward)
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
        object.__setattr__(self, "_cuts", None)  # _thresholds, built at the first array lookup

    def _position(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(cell, position in the cell) of each query x, as control_at reads them."""
        nodes = self.x_nodes
        # one owned copy of x becomes the position; the rest runs in place
        frac = np.array(x, dtype=float)
        frac -= nodes[0]
        frac /= self._dx
        np.clip(frac, 0.0, len(nodes) - 1.0, out=frac)
        j = frac.astype(np.int64)
        np.minimum(j, len(nodes) - 2, out=j)
        frac -= j
        return j, frac

    def control_at(self, k: int, x, record=None) -> np.ndarray:
        """Policy at step k, piecewise linear in x, clamped at the grid edges.

        Queries must be finite; a NaN query reads NaN where row k is one
        threshold (_thresholds), and raises elsewhere. A policy with
        switches hands record, when given, (k, cell, position in the cell,
        the cell's switch or NaN) for queries of this lookup, at least for
        those that bound each finite switch: the largest position below it
        and the smallest at or above it in its cell (_fold_brackets).
        """
        if self.switches is not None and type(x) is np.ndarray and x.dtype == np.float64 \
                and x.ndim:
            if self._cuts is None:
                object.__setattr__(self, "_cuts", _thresholds(self))
            if self._cuts[k] is not None:
                return self._threshold_at(k, x, record)
        c = self.controls[k]
        j, frac = self._position(x)
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

    def _threshold_at(self, k: int, x: np.ndarray, record) -> np.ndarray:
        """control_at on threshold row k (_thresholds): x < X reads vL, x >= X vR, NaN NaN.

        record sees the nearest query on each side of X, which hold the
        largest position below the switch and the smallest at or above it
        in its cell, since the position grows with x; queries of other cells
        carry a NaN switch, which _fold_brackets skips.
        """
        cut, key, table = self._cuts[k]
        index = np.less(x, cut).view(np.uint8)
        index = index + index
        index += np.greater_equal(x, cut).view(np.uint8)
        out = table.take(index)
        if record is not None:
            near = x.reshape(-1)
            if near.size:
                # keys in value order, less X's: below X they wrap to the top of uint64
                gap = _order_keys(near)
                gap -= key
                gap = gap.view(np.uint64)
                near = near.take([gap.argmax(), gap.argmin()])
                near = near[near == near]
            j, frac = self._position(near)
            record(k, j, frac, self.switches[k].take(j))
        return out


_KEY_MASK = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _order_keys(x: np.ndarray) -> np.ndarray:
    """int64 keys of float64 bits, in the order of the values: -0.0 sits just below +0.0
    and NaN outside +-inf. The map is its own inverse on the bits."""
    bits = x.view(np.int64)
    keys = bits >> 63
    keys &= _KEY_MASK
    keys ^= bits
    return keys


def _thresholds(policy: Policy) -> list:
    """Per row of policy: (X, its key, [nan, vR, vL]) where the row reads as one threshold
    in x, else None.

    A row qualifies when it has exactly one finite switch, in cell s; nodes
    0..s hold one value vL and nodes s+1.. one value vR, bit for bit; and
    each is +-0 or a power of two of magnitude at least 2**-900, so that
    the ramp (1-f)*v + v*f between two equal nodes rounds to v exactly.
    Such a row reads vL at every position left of the switch and vR at every
    other, and the position grows with x, so x < X reads vL and x >= X vR,
    X the least float that control_at sends to vR. X is found by bisection
    over the floats, with control_at's own position as the oracle, within 8
    ulps of the grid's span around x0 + (s + switch) * dx (a fraction of one
    ulp off on the desk grid), else between the grid's ends. Where every
    float reads vR, X is -inf; where none does, +inf, and the table reads vL
    there too.
    """
    c = np.asarray(policy.controls, dtype=float)
    sw = np.asarray(policy.switches, dtype=float)
    finite = sw == sw
    s = finite.argmax(axis=1)
    bits = c.view(np.int64)
    steps = bits[:, 1:] != bits[:, :-1]  # a qualifying row steps in cell s alone, if at all
    vl, vr = c[:, 0], c[:, -1]
    exact = [(v == 0) | ((np.abs(np.frexp(v)[0]) == 0.5) & (np.abs(v) >= 2.0**-900))
             for v in (vl, vr)]
    ok = np.flatnonzero((finite.sum(axis=1) == 1) & exact[0] & exact[1]
                        & (steps.sum(axis=1) == steps[np.arange(len(c)), s]))
    cuts = [None] * len(c)
    if not ok.size:
        return cuts
    s, at = s[ok, None], sw[ok, s[ok]][:, None]
    x0, x1, dx = policy.x_nodes[0], policy.x_nodes[-1], policy._dx

    def right(x, rows=slice(None)):  # whether control_at reads vR at x, a row of x per row
        j, frac = policy._position(x)
        return (j > s[rows]) | ((j == s[rows]) & ~(frac < at[rows]))

    guess = x0 + (s + at) * dx
    reach = 8 * np.spacing(abs(x0) + abs(x1))
    ends = np.concatenate([guess - reach, guess + reach, np.full_like(guess, x0 - dx),
                           np.full_like(guess, x1 + dx)], axis=1)
    reads = right(ends)
    # the position is clamped left of x0 - dx and right of x1 + dx: where the
    # first reads vR every float does, and where the second reads vL none does
    cut = np.where(reads[:, 2], -np.inf, np.inf)
    live = np.flatnonzero(reads[:, 3] & ~reads[:, 2])
    # lo reads vL and hi vR; a guess off by more than reach widens to the ends
    keys, reads = _order_keys(ends[live]), reads[live]
    lo = np.where(reads[:, 0], keys[:, 2], np.where(reads[:, 1], keys[:, 0], keys[:, 1]))
    hi = np.where(reads[:, 0], keys[:, 0], np.where(reads[:, 1], keys[:, 1], keys[:, 3]))
    probes, picked = np.arange(1, 16, dtype=np.uint64), np.arange(len(live))
    while live.size:  # 15 probes split each gap
        width = (hi - lo).view(np.uint64)  # below 2**64, so exact
        if (width <= 1).all():
            break
        step = np.maximum(width // 16, 1)[:, None] * probes
        between = np.minimum(lo[:, None] + step.view(np.int64), hi[:, None] - 1)
        n_left = 1 + (~right(_order_keys(between).view(np.float64), live)).sum(axis=1)
        bounds = np.concatenate([lo[:, None], between, hi[:, None]], axis=1)
        lo, hi = bounds[picked, n_left - 1], bounds[picked, n_left]
    cut[live] = _order_keys(hi).view(np.float64)
    vl, vr = vl[ok], np.where(cut == np.inf, vl[ok], vr[ok])  # no float reads vR: vL throughout
    tables = np.stack([np.full(len(ok), np.nan), vr, vl], axis=1)
    for row, x_cut, key, table in zip(ok.tolist(), cut.tolist(), _order_keys(cut).tolist(),
                                      tables):
        cuts[row] = x_cut, key, table
    return cuts


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
    at +-n_x cells, which changes no read. Every solve of a run reads the same
    stencil, so it is built once per distinct input bytes and handed out
    read-only.
    """
    return _stencil(np.asarray(x_nodes, dtype=float).tobytes(),
                    np.asarray(drift, dtype=float).tobytes(), np.float64(scale).tobytes(),
                    int(n_quad))


@functools.lru_cache(maxsize=8)
def _stencil(x_nodes: bytes, drift: bytes, scale: bytes, n_quad: int):
    x_nodes, drift, scale = np.frombuffer(x_nodes), np.frombuffer(drift), np.frombuffer(scale)[0]
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
    reads.flags.writeable = kernel.flags.writeable = False
    return reads, kernel


def _stderr(samples: np.ndarray) -> float:
    """Standard error of the mean of i.i.d. samples; 0 for a single sample."""
    n = samples.size
    return float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _bias_budget(grids: Grids, value: float) -> float:
    """Discretization allowance O(dt + dx^2), scaled by the value magnitude."""
    return (grids.dt + _uniform_spacing(grids.x_nodes())**2) * max(1.0, abs(value))


def _path_key(path: MeanControlPath) -> bytes:
    """A path's bytes: paths with equal keys give every reward the same bits."""
    return b"".join(np.ascontiguousarray(v, dtype=float).tobytes()
                    for v in (path.times, path.values, path.cumulative, path.reserve))


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
    shorter. The terminal reward is always -l(x). Inside a Picard session
    with a twin (_Hand) the twin makes these calls. Where it fails (a call
    that raised or warned in it ends it) the calling process calls, as
    alone, the block it was in and every later one.

    Each block's steps are solved in two passes. The backward loop computes
    q = dt * reward + E[V_{k+1}], its tie-broken argmax and V_k = max q, and
    refuses a non-finite V_k at its step. It records q at the argmax and at
    the four entries around it that _refine reads. _refine then sets the
    block's controls and switches in one vectorised pass over the cells that
    need them. In a session the loop stays in the calling process and the
    twin evaluates the rewards and refines (_Hand).
    """
    _check_path(path, grids)
    f = _running_reward(reward_fn, kind, grids, bounds, params, costs)
    t, x, a, dt = grids.t_nodes(), grids.x_nodes(), bounds.grid(grids.n_a), grids.dt
    n_t, n_x, n_a = grids.n_t, grids.n_x, grids.n_a
    # the reward is evaluated one block of time nodes at a time: sqrt-sized
    # blocks hold ~sqrt(n_t) rows of the (n_t+1, n_x, n_a) lattice for
    # ~sqrt(n_t) calls, and the reward is elementwise in t, so the bits do
    # not depend on the blocking
    block = math.isqrt(n_t) + 1  # ceil(sqrt(n_t + 1)), at least 2
    blocks = [(max(stop - block, 0), stop) for stop in range(n_t + 1, 0, -block)]

    def rewards(start: int, stop: int) -> np.ndarray:
        """The running reward on time nodes [start, stop), as (stop - start, n_x, n_a)."""
        return np.broadcast_to(f(t[start:stop, None, None], x[None, :, None], a[None, None, :],
                                 path), (stop - start, n_x, n_a))

    hand = _Hand.open(grids, blocks, a)
    if hand is not None and not hand.session.first:
        return hand.serve(rewards, t, x, dt)

    # tie-break order: smallest |a| first, then smaller a; argmax picks the
    # first maximal entry, so scanning in this order implements the rule. On a
    # grid with a_min >= 0 that order is the grid's own and q needs no copy.
    order = np.lexsort((a, np.abs(a)))
    reorder = not np.array_equal(order, np.arange(n_a))

    values = np.empty((n_t + 1, n_x))
    reads, kernel = _expectation_kernel(x, dt * a, params.sigma * np.sqrt(dt), grids.n_quad)
    values[-1] = terminal_reward(x, costs)
    # per step of a block: the argmax, and q at flat offsets 0, -1, +1, -n_a,
    # +n_a from it: at (j, best), (j, best-1), (j, best+1), (j-1, best[j]) and
    # (j+1, best[j]). An offset that leaves node j's row (best at a bound) or
    # q itself (j at a grid end) reads a wrong or clipped entry, which _refine
    # never reads. Alone, one block's record and the policy's rows live here;
    # in a session, in the rows shared with the twin (_Hand).
    rows = hand.rows if hand is not None else {
        "best": np.empty((1, block, n_x), dtype=np.min_scalar_type(n_a - 1)),
        "near": np.empty((1, block, 5, n_x)),
        "controls": np.empty((n_t, n_x)), "switches": np.empty((n_t, n_x - 1))}
    flat = np.arange(n_x) * n_a + np.array([0, -1, 1, -n_a, n_a])[:, None]
    q = np.empty((n_x, n_a))
    q_flat = q.reshape(-1)

    def step(k: int, s: int, i: int) -> None:
        """Step k's argmax and V_k, recorded at row i of slot s; q is dt * reward + E[V_{k+1}]."""
        best = order[q[:, order].argmax(axis=1)] if reorder else q.argmax(axis=1)
        rows["best"][s, i] = best
        q_flat.take(flat + best, out=rows["near"][s, i], mode="clip")
        values[k] = rows["near"][s, i, 0]
        if not np.isfinite(values[k]).all():
            raise NumericalError(f"non-finite value surface at step {k}")

    for b, (start, stop) in enumerate(blocks):
        s, top = b % len(rows["best"]), min(stop, n_t) - 1
        while top >= start:
            chunk = None if hand is None else hand.chunk(top)
            if chunk is None:  # the block's rest is evaluated here
                running = None  # one block alive at a time: drop the last before the next
                running = rewards(start, stop)
                for k in range(top, start - 1, -1):
                    np.multiply(running[k - start], dt, out=q)
                    q += values[k + 1].take(reads) @ kernel
                    step(k, s, k - start)
                break
            c, low = chunk  # steps top down to low, from the twin's ring
            for k in range(top, low - 1, -1):
                np.add(hand.ring(c, k), values[k + 1].take(reads) @ kernel, out=q)
                step(k, s, k - start)
            hand.read(c)
            top = low - 1
        if hand is None:
            _refine_block(a, rows, blocks, b)
        else:
            hand.recorded(b)
    if hand is None:
        controls, switches = rows["controls"], rows["switches"]
    else:
        hand.finish()  # nothing shared outlives the session: this process keeps copies
        controls, switches = rows["controls"].copy(), rows["switches"].copy()
    return Policy(t_nodes=t, x_nodes=x, controls=controls, values=values, switches=switches)


def _twin(grids: Grids) -> _fork.twin:
    """A Picard session on grids, its shared mapping sized for solve_hjb's handoff (_Hand)."""
    return _fork.twin(grids.n_particles, _Hand.size(grids))


def _refine_block(a: np.ndarray, rows: dict, blocks: list, b: int) -> None:
    """_refine on block b's steps, recorded in slot b % slots of rows' best and near."""
    start, stop = blocks[b]
    s, n = b % len(rows["best"]), min(stop, len(rows["controls"])) - start
    _refine(a, rows["best"][s, :n], rows["near"][s, :n], rows["controls"][start:stop],
            rows["switches"][start:stop])


class _Hand:
    """One best response split across a Picard session's twin (_fork.twin), bit for bit.

    The parent runs the backward loop; the twin evaluates every block's
    rewards and refines every block. The twin writes each block's rewards,
    times dt, into a ring of two chunks that holds one block, half a block
    at a time, and evaluates the next block while the parent runs this one:
    a block's reward is one call, so a ring of less than a block would
    leave the parent waiting for it. The parent records each block's argmax
    and q around it in one of two slots, and the twin refines every
    recorded block (_refine) into the policy's shared rows, which it wraps
    as its Policy and the parent copies. Each handoff is one byte on the
    session's pipes, written after its shared writes, so the system call
    orders them: L (a chunk is in the ring) and F (a block is refined) from
    the twin; c (a chunk is read, its slot free) and b (a block is
    recorded) from the parent. Only elementwise functions of the same inputs
    change process, so the bits are those of one process. A twin that dies,
    raises or warns hands over nothing more: the parent evaluates every row
    and refines every block it has not had, as alone.
    """

    def __init__(self, session, rows: dict, blocks: list, chunk: int, a: np.ndarray):
        self.session, self.rows, self.blocks, self.a = session, rows, blocks, a
        self.n_t = blocks[0][1] - 1
        # the ring's chunks, in the order the loop reads them: (block, top step, low step)
        self.chunks = [(b, top, max(top - chunk + 1, start))
                       for b, (start, stop) in enumerate(blocks)
                       for top in range(min(stop, self.n_t) - 1, start - 1, -chunk)]
        self.tops = {top: c for c, (_, top, _) in enumerate(self.chunks)}
        self.got = dict.fromkeys(b"LFcb", 0)  # handoff bytes received, by tag
        # the bytes the other side sends in this solve: read no further
        self.due = len(blocks) + (len(self.chunks) if session.first
                                  else max(len(self.chunks) - 2, 0))
        self.refined = 0  # blocks the parent has refined itself

    @staticmethod
    def layout(grids: Grids) -> tuple[int, dict]:
        """(rows per ring chunk, {name: (dtype, shape)}) of the shared rows on grids."""
        n_t, n_x, n_a = grids.n_t, grids.n_x, grids.n_a
        block = math.isqrt(n_t) + 1
        chunk = -(-block // 2)  # a ring of two chunks holds a block
        return chunk, {"cpu": (np.float64, (1,)), "ring": (np.float64, (2, chunk, n_x, n_a)),
                       "best": (np.min_scalar_type(n_a - 1), (2, block, n_x)),
                       "near": (np.float64, (2, block, 5, n_x)),
                       "controls": (np.float64, (n_t, n_x)),
                       "switches": (np.float64, (n_t, n_x - 1))}

    @staticmethod
    def _bytes(dtype, shape) -> int:
        return -(-np.dtype(dtype).itemsize * math.prod(shape) // 64) * 64  # 64-byte aligned

    @classmethod
    def size(cls, grids: Grids) -> int:
        """Bytes of the shared rows on grids."""
        return sum(cls._bytes(*spec) for spec in cls.layout(grids)[1].values())

    @classmethod
    def open(cls, grids: Grids, blocks: list, a: np.ndarray) -> _Hand | None:
        """This solve's handoff in the open session, or None to solve here alone."""
        session = _fork.shared()
        if session is None or len(session.buf) < cls.size(grids):
            return None
        chunk, shapes = cls.layout(grids)
        grid = (grids.n_t, grids.n_x, grids.n_a)
        if session.views is None or session.views["grid"] != grid:
            session.views, at = {"grid": grid}, 0
            for name, (dtype, shape) in shapes.items():
                session.views[name] = np.frombuffer(session.buf, dtype, math.prod(shape),
                                                    at).reshape(shape)
                at += cls._bytes(dtype, shape)
        return cls(session, session.views, blocks, chunk, a)

    def _more(self) -> bool:
        """Count the handoffs the other side has sent, waiting for one; False once it has gone."""
        got = self.session.take(self.due) if self.session.alive and self.due else b""
        self.due -= len(got)
        for tag in set(got):
            self.got[tag] += got.count(tag)
        return bool(got)

    def _wait(self, tag: str, count: int) -> bool:
        """Whether the other side's handoffs of tag reach count: False once it has gone."""
        while self.got[ord(tag)] < count:
            if not self._more():
                return False
        return True

    # -- the parent: the backward loop ---------------------------------------

    def chunk(self, top: int) -> tuple[int, int] | None:
        """(ring chunk, low step) of the chunk whose top step is top, once the twin has
        written it; None once the twin has gone, for the parent to evaluate the rest."""
        c = self.tops[top]
        return (c, self.chunks[c][2]) if self._wait("L", c + 1) else None

    def ring(self, c: int, k: int) -> np.ndarray:
        """Step k's dt * reward row, in ring chunk c."""
        return self.rows["ring"][c % 2, self.chunks[c][1] - k]

    def read(self, c: int) -> None:
        """The loop has read chunk c: its slot is free for chunk c + 2."""
        if c + 2 < len(self.chunks) and self.session.alive:
            self.session.post(b"c")

    def recorded(self, b: int) -> None:
        """The loop has recorded block b: the twin refines it, else the parent refines
        every block the twin has not. Either way block b - 1's slot is free on return."""
        if self.session.alive and self.session.post(b"b") and \
                (b + 1 == len(self.blocks) or self._wait("F", b)):
            return
        for done in range(max(self.got[ord("F")], self.refined), b + 1):
            _refine_block(self.a, self.rows, self.blocks, done)
        self.refined = b + 1

    def finish(self) -> None:
        """Wait for the twin's last refine and lend its CPU time to _pace (twin.lend)."""
        if self._wait("F", len(self.blocks)):
            self.session.lend(float(self.rows["cpu"][0]))
        else:
            self.recorded(len(self.blocks) - 1)

    # -- the twin: the rewards and the refines ---------------------------------

    def serve(self, rewards, t: np.ndarray, x: np.ndarray, dt: float) -> Policy:
        """The twin's side of the solve; its Policy wraps the shared rows and has no values.

        The twin evaluates each block as soon as the last one is in the
        ring, then writes it a chunk at a time, refining recorded blocks
        while it waits for a free slot. The CPU time of that work, which the
        parent lends to _fork.twin._pace, precedes each handoff in the rows.
        """
        rows, blocks, refined, running = self.rows, self.blocks, 0, None
        rows["cpu"][0] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")

            def work(job, tag: bytes = b""):
                mark = time.thread_time()
                done = job()
                rows["cpu"][0] += time.thread_time() - mark
                if caught:  # the twin leaves: the parent redoes the work, and warns
                    raise RuntimeError(f"the twin's work warned: {caught[0].message}")
                if tag:
                    self.session.post(tag)
                return done

            def gap() -> None:
                """Refine the next recorded block, else wait for the parent's next handoff."""
                nonlocal refined
                if refined < self.got[ord("b")]:
                    work(lambda: _refine_block(self.a, rows, blocks, refined), b"F")
                    refined += 1
                elif not self._more():  # take raises first once the parent has gone
                    raise EOFError("the parent's handoffs stopped short")

            for c, (b, top, low) in enumerate(self.chunks):
                start = blocks[b][0]
                if top == min(blocks[b][1], self.n_t) - 1:  # a block's first chunk
                    running = None  # one block alive at a time: drop the last before the next
                    running = work(lambda: rewards(*blocks[b]))
                while c >= self.got[ord("c")] + 2:  # slot c % 2 still holds chunk c - 2
                    gap()
                work(lambda: np.multiply(running[low - start:top - start + 1][::-1], dt,
                                         out=rows["ring"][c % 2, :top - low + 1]), b"L")
            running = None
            while refined < len(blocks):
                gap()
        return Policy(t_nodes=t, x_nodes=x, controls=rows["controls"], switches=rows["switches"])


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
    switches.fill(np.nan)
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


def _digest(array) -> tuple:
    """An array's dtype, shape and sha256: equal digests, equal arrays bit for bit."""
    array = np.asarray(array)
    return array.dtype.str, array.shape, hashlib.sha256(np.ascontiguousarray(array)).digest()


def _reads_key(policy: Policy) -> tuple:
    """Digests of what Policy.control_at reads besides the finite switches' values:
    the nodes, the controls and the NaN switch mask (None without switches)."""
    sw = policy.switches
    mask = None if sw is None else _digest(np.isnan(sw))
    return _digest(policy.x_nodes), _digest(policy.controls), mask


def _fold_brackets(lo, hi, at, j, frac, sw) -> None:
    """Fold one lookup's queries into the brackets (lo, hi] of their cells' finite switches.

    Query i sits at position frac[i] of cell j[i], whose switch is sw[i] (NaN:
    none) and whose bracket is entry at[j[i]] of lo and hi. lo rises to the
    largest position below the switch, hi falls to the smallest at or above
    it. A switch s with lo < s <= hi (_inside) sends every query folded here
    to the node that sw does (Policy.control_at: queries left of a switch
    read the left node), so it reads the same control for each of them.
    """
    inside = np.flatnonzero(sw == sw)  # the queries in finite-switch cells
    if inside.size:
        at, frac = at.take(j[inside]), frac[inside]
        below = frac < sw[inside]
        np.maximum.at(lo, at[below], frac[below])
        np.minimum.at(hi, at[~below], frac[~below])


def _inside(s, lo, hi) -> bool:
    """Whether every finite switch s lies in its bracket (lo, hi] (_fold_brackets); NaN passes."""
    return not np.any((s <= lo) | (s > hi))


@dataclass(eq=False)
class _Walk:
    """One path of states in _walk, read by every walker that rides it.

    policy leads it; members are the walkers with its very bytes, and each
    follower a (policy, members) pair that differs from it in finite
    switches only. xs, out and totals are its states, exit flags and
    per-path reward totals, one per reward callable its riders list.
    """
    policy: Policy
    members: list
    xs: np.ndarray
    out: np.ndarray
    followers: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def riders(self) -> list:
        return self.members + [i for _, members in self.followers for i in members]

    def look(self, k: int, record, rewards) -> tuple[np.ndarray, list]:
        """The lead's controls at step k, and the walk of the followers that leave there.

        A follower stays while every finite switch of its row k lies in the
        bracket of this walk's positions in its cell, so it reads these very
        controls. The followers that leave at step k go on as one new walk,
        the first of them leading: it starts from copies of the states, exit
        flags and totals before step k, and this walk stops the totals only
        they read.
        """
        if not self.followers:
            return self.policy.control_at(k, self.xs, record), []
        sw = self.policy.switches[k]
        lo, hi, cells = np.full(sw.size, -np.inf), np.full(sw.size, np.inf), np.arange(sw.size)
        a = self.policy.control_at(
            k, self.xs, lambda k, j, frac, sw_at: _fold_brackets(lo, hi, cells, j, frac, sw_at))
        stays = [_inside(policy.switches[k], lo, hi) for policy, _ in self.followers]
        if all(stays):
            return a, []
        leaving = [f for f, stay in zip(self.followers, stays) if not stay]
        self.followers = [f for f, stay in zip(self.followers, stays) if stay]
        kept = {f for i in self.riders() for f in rewards[i]}
        (policy, members), *rest = leaving
        walk = _Walk(policy, members, self.xs.copy(), self.out.copy(), rest)
        walk.totals = {f: self.totals[f].copy() for i in walk.riders() for f in rewards[i]}
        self.totals = {f: total for f, total in self.totals.items() if f in kept}
        return a, [walk]


def _walks(policies, rewards, xs: np.ndarray) -> list[_Walk]:
    """_walk's walks at its start, one per group that reads the same controls.

    A policy whose bytes (nodes, controls, switches) equal an earlier one's
    rides its walk; one whose controls, nodes and NaN switch mask do follows
    the first such policy's walk. A lone walker skips the digests.
    """
    walks, exact, lead = [], {}, {}
    for i, policy in enumerate(policies):
        key = full = ()
        if len(policies) > 1:
            sw = policy.switches
            key = _reads_key(policy)
            full = key + (None if sw is None else _digest(sw),)
        if full in exact:
            exact[full].append(i)
            continue
        members = exact[full] = [i]
        if key in lead:
            lead[key].followers.append((policy, members))
        else:
            lead[key] = _Walk(policy, members, xs.copy(), np.zeros(xs.size, bool))
            walks.append(lead[key])
    for walk in walks:
        walk.totals = {f: np.zeros(xs.size) for i in walk.riders() for f in rewards[i]}
    return walks


def _walk(policies, grids: Grids, x0: np.ndarray, noise, step, rewards=None, record=None):
    """The one Monte Carlo step loop, for several walkers in lockstep.

    Walker i starts at the clamped x0 and follows policies[i]; rewards[i],
    when given, lists the running rewards f(t, xs, a) whose per-path totals
    it accumulates. Each step k draws z = noise(k) once for every walker, then
    for each walk looks up the control a at its clamped states xs, sums it,
    adds f(t_k, xs, a) * dt to each total, moves xs to step(xs, a, z) and
    clamps it to the grid box. record, a push's hook, sees every lookup of a
    walk without followers.

    Walkers that provably read the same controls share one walk (_walks,
    _Walk.look), so each walk looks up, steps and totals a reward callable
    once per step for all its riders. Returns the control sum per walker and
    step, the exit count per walker, the final states per walker and the
    totals, one list per walker; riders of one walk share these arrays. A
    non-finite control sum ends the walk at its step, every later sum left
    NaN: the caller refuses it (_refuse_non_finite) before it reads anything
    else.
    """
    lo, hi, t, dt = grids.x_min, grids.x_max, grids.t_nodes(), grids.dt
    sums = np.full((len(policies), grids.n_t), np.nan)
    rewards = rewards or [()] * len(policies)
    walks = _walks(policies, rewards, np.clip(x0, lo, hi))

    def results():
        of = {i: walk for walk in walks for i in walk.riders()}
        ws = [of[i] for i in range(len(policies))]
        return (sums, np.array([w.out.sum() for w in ws]), [w.xs for w in ws],
                [[w.totals[f] for f in fs] for w, fs in zip(ws, rewards)])

    for k in range(grids.n_t):
        z = noise(k)
        for w in walks:  # a follower that leaves joins the list and walks at this step
            a, leaving = w.look(k, record, rewards)
            walks += leaving
            sums[w.riders(), k] = a.sum()
            # states start finite and stay clamped: only a non-finite control spoils
            # them, so the walk ends here, before the next lookup makes them a bad index
            if not np.isfinite(sums[w.members[0], k]):
                return results()
            for f, total in w.totals.items():
                total += f(t[k], w.xs, a) * dt
            w.xs = step(w.xs, a, z)
            w.out |= (w.xs < lo) | (w.xs > hi)
            np.clip(w.xs, lo, hi, out=w.xs)
    return results()


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
    change, so records (m, exit fraction, lo, hi) are keyed by _reads_key
    alone. lo and hi bracket each finite switch by the positions in its cell
    at its step (_fold_brackets). A same-key policy with every finite switch
    in its (lo, hi] reads, by induction over the steps, the same control for
    every particle, so the record is its push bit for bit. walk(record,
    brackets) fills lo and hi, one entry per finite switch, in place over
    all the push's particles.
    """
    sw = np.empty(0) if policy.switches is None else policy.switches
    finite = ~np.isnan(sw)
    key, s = _reads_key(policy), sw[finite]
    for m, exit_fraction, lo, hi in log.get(key, ()):
        if _inside(s, lo, hi):
            return m, exit_fraction
    if not isinstance(log, dict):  # a read-only view of a log: walk unlogged
        return walk()
    lo, hi = np.full(s.size, -np.inf), np.full(s.size, np.inf)
    cell = np.full(finite.shape, -1)
    cell[finite] = np.arange(s.size)  # a finite switch's entry in lo and hi

    def record(k, j, frac, sw_at):
        _fold_brackets(lo, hi, cell[k], j, frac, sw_at)

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
    per step, so each report is bitwise the lone evaluate call's. Walkers
    that read the same controls share a walk (_walk), and each distinct
    (path bytes, kind) is one reward callable, so a walk totals it once and
    its riders share the report. Returns one ValueReport per reward of each
    walker; a walker over 1% exit warns once.
    """
    paths = {}  # path bytes -> (path, the kinds walkers read on it)
    for _, path, kinds in walkers:
        _check_path(path, grids)
        read = paths.setdefault(_path_key(path), (path, []))[1]
        read += [kind for kind in kinds if kind not in read]
    fns = {(key, kind): f for key, (path, kinds) in paths.items()
           for kind, f in zip(kinds, _path_rewards(path, kinds, grids, bounds, params, costs,
                                                   reward_fn))}
    rewards = [[fns[_path_key(path), kind] for kind in kinds] for _, path, kinds in walkers]
    seed = grids.seed if seed is None else seed
    n, dt, scale = grids.n_particles, grids.dt, params.sigma * np.sqrt(grids.dt)
    gen = substream(seed, "evaluate")
    # one row of normals per step, read by every walker, keeps a single row alive
    sums, exits, xs, totals = _walk(
        [policy for policy, _, _ in walkers], grids,
        law0.sample(n, substream(seed, "evaluate-x0")), lambda k: gen.standard_normal(n),
        lambda xs, a, z: xs + a * dt + scale * z, rewards)
    _refuse_non_finite(sums)
    reports, terminals, shared = [], {}, {}  # by id: the arrays riders of one walk share
    for x_end, walker_totals, exit_fraction in zip(xs, totals, exits / n):
        _warn_exit(exit_fraction, stacklevel=4)  # at the caller of evaluate or the report
        if id(x_end) not in terminals:
            terminals[id(x_end)] = terminal_reward(x_end, costs)
        reports.append([])
        for total in walker_totals:
            if id(total) not in shared:
                total += terminals[id(x_end)]
                if not np.all(np.isfinite(total)):
                    raise NumericalError("non-finite path objective in evaluate")
                value = float(total.mean())
                shared[id(total)] = ValueReport(
                    value=value, stderr=_stderr(total), n_paths=n,
                    bias_budget=_bias_budget(grids, value), exit_fraction=float(exit_fraction))
            reports[-1].append(shared[id(total)])
    return reports


def _path_rewards(path: MeanControlPath, kinds, grids: Grids, bounds: ControlBounds,
                  params: PoolParams, costs: CostSpec, reward_fn=None) -> list:
    """f(t, xs, a) per kind on path: reward_fn, else the kind's built-in reward, bit for bit.

    The built-in kinds share the path's base term x*gamma(t, path) - h(t, x):
    the first of them a walk calls at a states array and time forms it, and
    each adds its own cost term to it, as reward does. The bound constants
    are formed either way, as in _running_reward.
    """
    consts = [bound_constant(params, costs, bounds, grids.horizon, kind.denom_exp)
              for kind in kinds]
    if reward_fn is not None:
        return [lambda t, xs, a: reward_fn(t, xs, a, path) for _ in kinds]
    last = []  # the time, states and base term of the last call; held, so `is` is sound

    def base(t, xs):
        if not last or last[1] is not xs or last[0] != t:
            last[:] = t, xs, _base(t, xs, path, params, costs)
        return last[2]

    return [lambda t, xs, a, kind=kind, c=c: base(t, xs) + _lam(kind, t, a, path, params, c)
            for kind, c in zip(kinds, consts)]


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
