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
else stays put. Replication r draws its noise from a stream keyed by
(seed, r): results are bitwise reproducible under any batching, and the two
arms of a pair share every draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError, NumericalError
from .grids import ControlBounds, Grids, InitialLaw, admissible
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


def _chunks(n_reps: int, n_traders: int, n_t: int) -> list[tuple[int, int]]:
    # ~10^7 floats a chunk: the (m, n, n_t) noise plus about eight (n_t+1, m)
    # arrays of per-step bookkeeping and its post-loop temporaries
    per = max(1, int(10_000_000 // max(1, (n_traders + 8) * n_t)))
    return [(s, min(s + per, n_reps)) for s in range(0, n_reps, per)]


def simulate(policy: Policy, cfg: SimConfig, grids: Grids, bounds: ControlBounds,
             params: PoolParams, costs: CostSpec, law0: InitialLaw,
             deviant_policy: Policy | None = None, seed: int | None = None) -> SimResult:
    """Run cfg.n_reps independent markets of cfg.n_traders each."""
    ok, _ = admissible(bounds, params.x0, grids.horizon)
    if not ok:
        raise AdmissibilityError("control bounds inadmissible: reserves could deplete")
    seed = grids.seed if seed is None else seed
    n, n_reps, n_t, dt, phi = cfg.n_traders, cfg.n_reps, grids.n_t, grids.dt, params.phi
    t = grids.t_nodes()
    sqdt = np.sqrt(dt)

    profits = np.empty((n_reps, n))
    mean_control = np.zeros(n_t + 1)
    mode_gap = 0.0
    k_min_inc = np.inf
    floored = 0

    for lo, hi in _chunks(n_reps, n, n_t):
        m = hi - lo
        xs = np.empty((m, n))
        xi = np.empty((m, n, n_t))
        xi0 = np.empty((m, n_t))
        for r in range(lo, hi):
            rng = substream(seed, "sim", r)
            xs[r - lo] = law0.sample(n, rng)
            xi[r - lo] = rng.standard_normal((n, n_t))
            xi0[r - lo] = rng.standard_normal(n_t)

        ys = np.zeros((m, n))
        hcost = np.zeros((m, n))
        seq = PoolState(np.full(m, params.x0), np.full(m, params.y0))
        w0 = np.zeros(m)
        # per step (rows) and replication: per-capita cumulative flow, the
        # sequential pool's price and invariant, the traded price before the floor
        flow, p_seq, k_seq, raw = np.zeros((4, n_t + 1, m))

        for k in range(n_t + 1):
            p_seq[k], k_seq[k] = spot_price(seq), seq.k
            base = (price_after_aggregate(params, -flow[k]) if cfg.price_mode == "aggregate"
                    else p_seq[k])
            raw[k] = base + params.sigma0 * w0
            price = np.maximum(raw[k], cfg.p_min)
            if k == n_t:
                break

            a = policy.control_at(k, xs)
            if deviant_policy is not None:
                a[:, 0] = deviant_policy.control_at(k, xs[:, 0])
            m_k = a.mean(axis=1)
            mean_control[k] += m_k.sum()

            fill = bid_ask_mid(price, phi)[2] if cfg.use_mid_price else price
            ys -= a * fill[:, None] * dt
            hcost += costs.h(t[k], xs) * dt
            xs = xs + a * dt + params.sigma * sqdt * xi[:, :, k]

            # the step's net per-capita flow meets a venue that charges the fee
            # on the input side: the crowd's net sales (risky inflows) go
            # through execute_swap, its net purchases through buy_swap
            delta = -m_k * dt
            inflow = delta >= 0
            sold = execute_swap(seq, np.where(inflow, delta, 0.0), phi).new_state
            bought = buy_swap(seq, np.where(inflow, 0.0, -delta), phi).new_state
            seq = PoolState(np.where(inflow, sold.x, bought.x),
                            np.where(inflow, sold.y, bought.y))
            flow[k + 1] = flow[k] + m_k * dt
            w0 = w0 + sqdt * xi0[:, k]

        profits[lo:hi] = ys + xs * price[:, None] - hcost - costs.l(xs)
        mean_control[n_t] += m_k.sum()  # repeat last interval's controls
        p_agg = price_after_aggregate(params, -flow)
        mode_gap = max(mode_gap, float(np.max(np.abs(p_agg - p_seq))))
        k_min_inc = min(k_min_inc, float(np.min(np.diff(k_seq, axis=0))))
        floored += int(np.sum(raw < cfg.p_min))
        if lo == 0:  # the first replication's paths
            raw0, p_agg0, p_seq0, k_seq0, flow0 = (
                v[:, 0].copy() for v in (raw, p_agg, p_seq, k_seq, flow))

    if not np.all(np.isfinite(profits)):
        raise NumericalError("non-finite trader profits")
    mean_control /= n_reps
    return SimResult(
        profits=profits, mean_control=mean_control,
        price_path=np.maximum(raw0, cfg.p_min), price_aggregate=p_agg0,
        price_sequential=p_seq0, k_path_sequential=k_seq0,
        k_path_aggregate=execute_swap(params.initial_state(), -flow0, phi).new_state.k,
        mode_discrepancy=mode_gap, k_min_increment=k_min_inc, floored_steps=floored,
    )


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
    dev = simulate(policy, cfg, grids, bounds, params, costs, law0,
                   deviant_policy=deviant_policy, seed=seed)
    conf = simulate(policy, cfg, grids, bounds, params, costs, law0,
                    deviant_policy=None, seed=seed)
    gains = dev.profits[:, 0] - conf.profits[:, 0]
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
