"""Finite-population simulation against the live pool.

N traders hold inventories X^i driven by their policies plus idiosyncratic
noise. The pool sees the per-capita flow: its risky reserve is
x0 - (1/N) * sum_i integral of alpha^i. Prices come in two modes, both
reported on every run:

* aggregate: the closed-form price of the net flow applied to the initial
  reserves in one shot (the mean-field convention; the invariant drifts
  *below* k0 under net buying because the two-stage formula rebates fees on
  outflows);
* sequential: the pool state is updated step by step on a venue that charges
  the fee on whichever token is the input side (pool.execute_swap on risky
  inflows, pool.buy_swap on outflows), so the invariant never decreases.

An additive common price noise sigma0*W^0 rides on top of either mode, with
a configurable floor. Traders' numeraire legs fill at the mid quote of
pool.bid_ask_mid, (1+phi^2)/(2*phi) times the observed price (or at the price
itself when use_mid_price is off); terminal inventory is valued at the
observed price. Every pool formula lives in pool.py.
Profit per trader: Y_T + X_T*P_T - integral h(t, X) dt - l(X_T).

deviation_gain estimates, with common random numbers within each paired
replication, how much trader 1 gains by switching policies while everyone
else stays put. Both arms run in one pass: replication r draws its noise
once, from a stream keyed by (seed, r), and the n-1 conformist traders, whose
inventories do not depend on the price, are moved once for both arms. Only
trader 1, the pool and the price carry an arm axis. simulate is the one-arm
case of the same loop; deviation_gain's pass skips the crowd's cash, running
cost and profits and arm 0's statistics, which only simulate reports, and in
aggregate mode the sequential venue, whose price nothing else reads.

A pass splits its replications into one contiguous span per usable core and
runs each span on a forked worker process (_fork.fork_map; in order here on
one core or without fork), which draws and steps it alone. A worker runs its
span in chunks of at most 5*10^6 // spans floats of trader noise, so a pass
holds at most 40 MB of it in all, and every chunk of a span draws into the
buffers of its first. The parent joins the spans' arrays in order and folds
their partial statistics with max, min and an integer sum, which are exact:
results are bitwise reproducible under any batching and any worker count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fork import _usable_cores, fork_map
from .errors import DomainError, NumericalError
from .grids import ControlBounds, Grids, InitialLaw, reserve_floor
from .pool import (PoolParams, PoolState, bid_ask_mid, buy_swap, execute_swap,
                   price_after_aggregate, spot_price)
from .rewards import CostSpec, RewardKind, drift_kernel, lambda_orig
from .solver import Policy, _stderr
from .streams import substream

PRICE_MODES = ("aggregate", "sequential")


@dataclass(frozen=True)
class SimConfig:
    n_traders: int = 50
    n_reps: int = 200
    price_mode: str = "aggregate"
    use_mid_price: bool = True
    p_min: float = 1e-6

    def __post_init__(self):
        problems = []
        if self.n_traders < 1:
            problems.append(f"n_traders must be >= 1, got {self.n_traders}")
        if self.n_reps < 1:
            problems.append(f"n_reps must be >= 1, got {self.n_reps}")
        if self.price_mode not in PRICE_MODES:
            problems.append(f"price_mode must be one of {PRICE_MODES}, got {self.price_mode!r}")
        if self.p_min <= 0:
            problems.append(f"p_min must be > 0, got {self.p_min}")
        if problems:
            raise DomainError(problems)


@dataclass
class SimResult:
    profits: np.ndarray              # (n_reps, n_traders)
    mean_control: np.ndarray         # (n_t+1,), averaged over reps and traders
    price_path: np.ndarray           # first replication, traded mode, with noise
    price_aggregate: np.ndarray      # first replication, noise-free
    price_sequential: np.ndarray     # first replication, noise-free
    k_path_aggregate: np.ndarray     # first replication
    k_path_sequential: np.ndarray    # first replication
    mode_discrepancy: float          # max over reps/steps of |P_agg - P_seq|
    k_min_increment: float           # min over reps/steps of sequential k increments
    floored_steps: int               # price-floor activations, traded mode


def _chunks(n_reps: int, n_traders: int, n_t: int, workers: int = 1) -> list[tuple[int, int]]:
    # a chunk holds at most 5*10^6 // workers floats (40 MB over a pass's
    # workers) of the (n_t, m, n) noise every arm shares, or one replication
    # when that alone is more; later chunks reuse the first's buffers, and the
    # rest of a chunk's state holds one step
    per = max(1, int(5_000_000 // workers // max(1, n_traders * n_t)))
    return [(s, min(s + per, n_reps)) for s in range(0, n_reps, per)]


def _slices(m: int, cores: int) -> list[tuple[int, int]]:
    """[0, m) as at most ``cores`` contiguous slices, each of one replication or more."""
    parts = max(1, min(cores, m))
    return [(m * i // parts, m * (i + 1) // parts) for i in range(parts)]


def _draw(seed: int, law0: InitialLaw, lo: int, scale: float,
          x_start: np.ndarray, noise: np.ndarray, xi0: np.ndarray) -> None:
    """Fill a chunk's starting inventories, scaled trader noise and common normals.

    Row i of each array is replication lo + i, drawn from its own stream keyed
    by (seed, "sim", lo + i), so the bits do not depend on how the
    replications are split into chunks or spans.
    """
    n_t, m, n = noise.shape
    for i in range(m):
        rng = substream(seed, "sim", lo + i)
        x_start[i] = law0.sample(n, rng)
        noise[:, i] = rng.standard_normal((n, n_t)).T
        xi0[:, i] = rng.standard_normal(n_t)
    noise *= scale


def _venue(seq: PoolState, delta: np.ndarray, phi: float) -> PoolState:
    """The sequential venue after a net per-capita flow ``delta`` per pool.

    The fee is charged on the input side: the crowd's net sales (risky
    inflows) go through execute_swap, its net purchases through buy_swap. A
    leg that no pool takes is not called. When both run, each runs on the
    whole batch with the other leg's amount zeroed: gathering and scattering
    the two subsets costs more than the half of the formulas it would skip.
    """
    inflow = delta >= 0
    if inflow.all():
        return execute_swap(seq, delta, phi).new_state
    if not inflow.any():
        return buy_swap(seq, -delta, phi).new_state
    sold = execute_swap(seq, np.where(inflow, delta, 0.0), phi).new_state
    bought = buy_swap(seq, np.where(inflow, 0.0, -delta), phi).new_state
    return PoolState(np.where(inflow, sold.x, bought.x), np.where(inflow, sold.y, bought.y))


def _simulate_arms(policy: Policy, trader1_policies: list[Policy], cfg: SimConfig,
                   grids: Grids, bounds: ControlBounds, params: PoolParams, costs: CostSpec,
                   law0: InitialLaw, seed: int | None,
                   report: bool) -> tuple[SimResult | None, np.ndarray]:
    """One pass over the replications for several arms that differ only in trader 1.

    Trader 1 follows trader1_policies[j] in arm j; the other n-1 traders follow
    ``policy`` in every arm. Returns trader 1's profits in every arm,
    (arms, n_reps), after arm 0's SimResult, which is None unless ``report``.
    The replications run in one span per usable core, each on its own forked
    worker (see _span); the parent joins what the spans return.
    """
    reserve_floor(bounds, params.x0, grids.horizon)
    seed = grids.seed if seed is None else seed
    spans = _slices(cfg.n_reps, _usable_cores())
    parts = fork_map(lambda span: _span(span, len(spans), policy, trader1_policies, cfg, grids,
                                        params, costs, law0, seed, report),
                     spans, len(spans))
    trader1 = np.concatenate([t1 for t1, _ in parts], axis=1)
    if report:
        profits, step_means, firsts, gaps, k_incs, floors = zip(*(stats for _, stats in parts))
        profits = np.concatenate(profits)
    if not (np.all(np.isfinite(trader1)) and (not report or np.all(np.isfinite(profits)))):
        raise NumericalError("non-finite trader profits")
    if not report:
        return None, trader1
    # one reduction over every replication, so chunk and span boundaries leave
    # no trace; the terminal node repeats the last interval's controls
    mean_control = np.concatenate(step_means, axis=1).mean(axis=1)
    mean_control = np.append(mean_control, mean_control[-1])
    first = firsts[0]
    return SimResult(
        profits=profits, mean_control=mean_control,
        price_path=np.maximum(first[0], cfg.p_min), price_aggregate=first[1],
        price_sequential=first[2], k_path_sequential=first[3],
        k_path_aggregate=execute_swap(params.initial_state(), -first[4], params.phi).new_state.k,
        mode_discrepancy=max(gaps), k_min_increment=min(k_incs), floored_steps=sum(floors),
    ), trader1


def _span(span: tuple[int, int], workers: int, policy: Policy, trader1_policies: list[Policy],
          cfg: SimConfig, grids: Grids, params: PoolParams, costs: CostSpec, law0: InitialLaw,
          seed: int, report: bool) -> tuple[np.ndarray, tuple | None]:
    """Draw and step replications [start, stop) of a pass, one of ``workers`` spans.

    The crowd's inventories do not depend on the price, so its draws,
    controls and inventories are computed once and shared, while trader 1,
    the pool and the price carry an arm axis. Returns trader 1's profits,
    (arms, stop - start), and, with ``report``, the span's share of arm 0's
    statistics: its profits, its per-step mean controls (n_t, stop - start),
    replication 0's price and pool paths (None unless start == 0), and its
    partial mode gap (max), least k increment (min) and floored-step count
    (sum). Without ``report`` that share is None and the span skips the
    crowd's cash, running cost and profits; in aggregate mode it skips the
    sequential venue too.
    """
    start, stop = span
    n, n_t, dt, phi = cfg.n_traders, grids.n_t, grids.dt, params.phi
    n_arms = len(trader1_policies)
    t = grids.t_nodes()
    sqdt = np.sqrt(dt)
    venue = report or cfg.price_mode == "sequential"  # does anything read the venue?

    trader1 = np.empty((n_arms, stop - start))
    first = None
    if report:
        profits = np.empty((stop - start, n))
        step_means = np.empty((n_t, stop - start))  # arm 0's mean control per step and rep
        if start == 0:
            first = np.empty((5, n_t + 1))  # replication 0: raw, p_agg, p_seq, k_seq, flow
    mode_gap = 0.0
    k_min_inc = np.inf
    floored = 0

    chunks = _chunks(stop - start, n, n_t, workers)  # offsets into the span
    size = chunks[0][1]  # the first chunk is the largest: every chunk draws into its buffers
    x_buf, noise_buf, xi0_buf = np.empty(size * n), np.empty(n_t * size * n), np.empty(n_t * size)
    mid = bid_ask_mid(1.0, phi)[2] if cfg.use_mid_price else 1.0  # the fill per unit price
    for lo, hi in chunks:
        m = hi - lo
        x_start = x_buf[:m * n].reshape(m, n)
        noise = noise_buf[:n_t * m * n].reshape(n_t, m, n)  # step-major: a step reads one block
        xi0 = xi0_buf[:n_t * m].reshape(n_t, m)
        _draw(seed, law0, start + lo, params.sigma * sqdt, x_start, noise, xi0)

        # the crowd (traders 2..n) once; trader 1 per arm
        xc, x1 = x_start[:, 1:].copy(), np.tile(x_start[:, 0], (n_arms, 1))
        if report:
            yc, hc = np.zeros((2, m, n - 1))
        y1, h1 = np.zeros((2, n_arms, m))
        a = np.empty((n_arms, m, n))
        if venue:
            seq = PoolState(np.full((n_arms, m), params.x0), np.full((n_arms, m), params.y0))
        flow = np.zeros((n_arms, m))  # per-capita cumulative flow
        w0 = np.zeros(m)

        for k in range(n_t + 1):
            p_seq = spot_price(seq) if venue else None
            p_agg = price_after_aggregate(params, -flow)
            raw = (p_agg if cfg.price_mode == "aggregate" else p_seq) + params.sigma0 * w0
            price = np.maximum(raw, cfg.p_min)
            if report:  # the statistics SimResult reports are arm 0's
                k_seq = seq.k
                mode_gap = max(mode_gap, float(np.max(np.abs(p_agg[0] - p_seq[0]))))
                floored += int(np.sum(raw[0] < cfg.p_min))
                if start + lo == 0:
                    first[:, k] = raw[0, 0], p_agg[0, 0], p_seq[0, 0], k_seq[0, 0], flow[0, 0]
            if k == n_t:
                break

            crowd = policy.control_at(k, xc)
            a[:, :, 1:] = crowd
            for j, own in enumerate(trader1_policies):
                a[j, :, 0] = own.control_at(k, x1[j])
            a1 = a[:, :, 0]
            # each arm's mean runs over its full (m, n) row, as a one-arm run would
            m_k = a.mean(axis=2)
            # as in propagate: a non-finite control is refused at its step (the mean
            # carries any NaN), before the next step's lookup turns it into a bad index
            if not np.isfinite(m_k).all():
                raise NumericalError(f"non-finite trader controls at step {k}")

            fill = price * mid
            y1 -= a1 * fill * dt
            h1 += costs.h(t[k], x1) * dt
            if report:
                step_means[k, lo:hi] = m_k[0]
                yc -= crowd * fill[0][:, None] * dt
                hc += costs.h(t[k], xc) * dt
            xc += crowd * dt
            xc += noise[k, :, 1:]
            x1 += a1 * dt
            x1 += noise[k, :, 0]

            if venue:
                seq = _venue(seq, -m_k * dt, phi)
            if report:
                k_min_inc = min(k_min_inc, float(np.min(seq.k[0] - k_seq[0])))
            flow += m_k * dt
            w0 = w0 + sqdt * xi0[k]

        trader1[:, lo:hi] = y1 + x1 * price - h1 - costs.l(x1)
        if report:
            profits[lo:hi, 1:] = yc + xc * price[0][:, None] - hc - costs.l(xc)
            profits[lo:hi, 0] = trader1[0, lo:hi]
    if not report:
        return trader1, None
    return trader1, (profits, step_means, first, mode_gap, k_min_inc, floored)


def simulate(policy: Policy, cfg: SimConfig, grids: Grids, bounds: ControlBounds,
             params: PoolParams, costs: CostSpec, law0: InitialLaw,
             deviant_policy: Policy | None = None, seed: int | None = None) -> SimResult:
    """Run cfg.n_reps independent markets of cfg.n_traders each."""
    own = policy if deviant_policy is None else deviant_policy
    return _simulate_arms(policy, [own], cfg, grids, bounds, params, costs, law0,
                          seed, report=True)[0]


@dataclass(frozen=True)
class DeviationGain:
    gain: float
    stderr: float
    ci_low: float
    ci_high: float
    n_reps: int


def deviation_gain(policy: Policy, deviant_policy: Policy, cfg: SimConfig, grids: Grids,
                   bounds: ControlBounds, params: PoolParams, costs: CostSpec,
                   law0: InitialLaw, seed: int | None = None) -> DeviationGain:
    """Paired estimate of trader 1's profit change from deviating.

    Both arms replay identical noise per replication; a deviant equal to the
    conformist policy therefore yields exactly zero gain.
    """
    _, trader1 = _simulate_arms(policy, [deviant_policy, policy], cfg, grids, bounds, params,
                                costs, law0, seed, report=False)
    gains = trader1[0] - trader1[1]
    mean, se = float(gains.mean()), _stderr(gains)
    return DeviationGain(gain=mean, stderr=se, ci_low=mean - 1.96 * se,
                         ci_high=mean + 1.96 * se, n_reps=gains.size)


def impact_aware_reward(n_traders: int, params: PoolParams, costs: CostSpec,
                        kind: RewardKind):
    """Running reward for a deviant who prices in its own 1/N market impact.

    The crowd's drift coefficient splits as m(t)*kernel(t); a single trader
    among n contributes a/n of the flow, so its perceived drift term is
    x*kernel(t)*(m(t)*(n-1)/n + a/n). Inventory costs are unchanged, and the
    transaction cost is always the original lam (kind supplies only denom_exp),
    because the N-trader market charges the real fee. Feeding this to the
    solver yields the finite-N best response used as the deviant in the gain
    experiments; the gain it buys shrinks like 1/n as the crowd grows.
    """
    def fn(t, x, a, path):
        kern = drift_kernel(t, path, params)
        m = path.value_at(t)
        drift = kern * (m * (n_traders - 1) + np.asarray(a)) / n_traders
        return (np.asarray(x) * drift
                + lambda_orig(a, t, path, params, kind)
                - costs.h(t, np.asarray(x)))

    return fn
