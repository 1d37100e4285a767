"""Finite-population simulation against the live pool.

N traders hold inventories X^i driven by their policies plus idiosyncratic
noise. The pool sees the per-capita flow: its risky reserve is
x0 - (1/N) * sum_i integral of alpha^i. Prices come in two modes, both
reported on every run:

* aggregate: the closed-form price of the net flow applied to the initial
  reserves in one shot (the mean-field convention; the invariant drifts
  *below* k0 under net buying because the two-stage formula rebates fees on
  outflows);
* sequential: the pool state is updated step by step with the fee charged on
  whichever token is the input side, so the invariant never decreases.

An additive common price noise sigma0*W^0 rides on top of either mode, with
a configurable floor. Traders' numeraire legs fill at the mid-price quote
(1+phi^2)/(2*phi) times the observed price (or at the price itself when
use_mid_price is off); terminal inventory is valued at the observed price.
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
from .pool import PoolParams
from .rewards import CostSpec, RewardKind, drift_kernel, lambda_orig
from .solver import Policy
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
    per = max(1, int(10_000_000 // max(1, n_traders * n_t)))
    return [(s, min(s + per, n_reps)) for s in range(0, n_reps, per)]


def simulate(policy: Policy, cfg: SimConfig, grids: Grids, bounds: ControlBounds,
             params: PoolParams, costs: CostSpec, law0: InitialLaw,
             deviant_policy: Policy | None = None, seed: int | None = None,
             n_reps: int | None = None) -> SimResult:
    """Run cfg.n_reps independent markets of cfg.n_traders each."""
    ok, _ = admissible(bounds, params.x0, grids.horizon)
    if not ok:
        raise AdmissibilityError("control bounds inadmissible: reserves could deplete")
    seed = grids.seed if seed is None else seed
    n_reps = cfg.n_reps if n_reps is None else n_reps
    n, n_t, dt = cfg.n_traders, grids.n_t, grids.dt
    t = grids.t_nodes()
    sqdt = np.sqrt(dt)
    mid_factor = (1.0 + params.phi**2) / (2.0 * params.phi) if cfg.use_mid_price else 1.0

    profits = np.empty((n_reps, n))
    mean_control = np.zeros(n_t + 1)
    mode_gap = 0.0
    k_min_inc = np.inf
    floored = 0
    first: dict[str, np.ndarray] = {}

    for lo, hi in _chunks(n_reps, n, n_t):
        m = hi - lo
        x0s = np.empty((m, n))
        xi = np.empty((m, n, n_t))
        xi0 = np.empty((m, n_t))
        for r in range(lo, hi):
            rng = substream(seed, "sim", r)
            x0s[r - lo] = law0.sample(n, rng)
            xi[r - lo] = rng.standard_normal((n, n_t))
            xi0[r - lo] = rng.standard_normal(n_t)

        xs = x0s.copy()
        ys = np.zeros((m, n))
        hcost = np.zeros((m, n))
        flow = np.zeros(m)                    # per-capita cumulative flow
        px = np.full(m, params.x0)            # sequential pool reserves
        py = np.full(m, params.k0 / params.x0)
        w0 = np.zeros(m)
        track = lo == 0
        if track:
            for key in ("price_path", "price_aggregate", "price_sequential",
                        "k_path_aggregate", "k_path_sequential"):
                first[key] = np.empty(n_t + 1)

        for k in range(n_t + 1):
            p_agg = params.k0 / ((params.x0 - params.phi * flow) * (params.x0 - flow))
            p_seq = py / px
            mode_gap = max(mode_gap, float(np.max(np.abs(p_agg - p_seq))))
            base = p_agg if cfg.price_mode == "aggregate" else p_seq
            noisy = base + params.sigma0 * w0
            low = noisy < cfg.p_min
            floored += int(np.sum(low))
            noisy = np.where(low, cfg.p_min, noisy)
            if track:
                first["price_path"][k] = noisy[0]
                first["price_aggregate"][k] = p_agg[0]
                first["price_sequential"][k] = p_seq[0]
                first["k_path_aggregate"][k] = (params.x0 - flow[0]) * params.k0 \
                    / (params.x0 - params.phi * flow[0])
                first["k_path_sequential"][k] = px[0] * py[0]
            if k == n_t:
                profits[lo:hi] = ys + xs * noisy[:, None] - hcost - costs.l(xs)
                mean_control[k] += a.mean(axis=1).sum()  # repeat last interval's controls
                break

            a = policy.control_at(k, xs)
            if deviant_policy is not None:
                a[:, 0] = deviant_policy.control_at(k, xs[:, 0])
            mean_control[k] += a.mean(axis=1).sum()
            m_k = a.mean(axis=1)

            ys -= a * (mid_factor * noisy[:, None]) * dt
            hcost += costs.h(t[k], xs) * dt
            xs = xs + a * dt + params.sigma * sqdt * xi[:, :, k]

            # pool updates from the step's net per-capita flow
            delta = -m_k * dt                  # pool-side risky delta
            kk = px * py
            if np.any(px + np.minimum(delta, params.phi * delta) <= 0):
                raise NumericalError("sequential pool reserve depleted")
            py_new = np.where(
                delta >= 0,
                kk / (px + params.phi * delta),
                py + (kk / (px + delta) - py) / params.phi,
            )
            px = px + delta
            k_min_inc = min(k_min_inc, float(np.min(px * py_new - kk)))
            py = py_new
            flow = flow + m_k * dt
            w0 = w0 + sqdt * xi0[:, k]

    if not np.all(np.isfinite(profits)):
        raise NumericalError("non-finite trader profits")
    mean_control /= n_reps
    return SimResult(
        profits=profits, mean_control=mean_control,
        price_path=first["price_path"], price_aggregate=first["price_aggregate"],
        price_sequential=first["price_sequential"],
        k_path_aggregate=first["k_path_aggregate"],
        k_path_sequential=first["k_path_sequential"],
        mode_discrepancy=mode_gap, k_min_increment=k_min_inc,
        floored_steps=floored,
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
                   law0: InitialLaw, n_reps: int | None = None,
                   seed: int | None = None) -> DeviationGain:
    """Paired estimate of trader 1's profit change from deviating.

    Both arms replay identical noise per replication; a deviant equal to the
    conformist policy therefore yields exactly zero gain.
    """
    dev = simulate(policy, cfg, grids, bounds, params, costs, law0,
                   deviant_policy=deviant_policy, seed=seed, n_reps=n_reps)
    conf = simulate(policy, cfg, grids, bounds, params, costs, law0,
                    deviant_policy=None, seed=seed, n_reps=n_reps)
    gains = dev.profits[:, 0] - conf.profits[:, 0]
    r = gains.size
    mean = float(gains.mean())
    se = float(gains.std(ddof=1) / np.sqrt(r)) if r > 1 else 0.0
    return DeviationGain(gain=mean, stderr=se, ci_low=mean - 1.96 * se,
                         ci_high=mean + 1.96 * se, n_reps=r)


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
