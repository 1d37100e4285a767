"""Running and terminal rewards for a trader facing the crowd's flow.

With the crowd trading at mean rate m(t) (cumulative C(t)), the pool price
drifts at

    gamma(t) = k0 * m(t) * ((1+phi)*x0 - 2*phi*C) / ((x0-C)^2 * (x0-phi*C)^2)

and a trader holding inventory x while trading at rate a collects

    f(t, x, a) = x*gamma(t) + lam(t, a) - h(t, x),

where lam is the transaction-cost term and h a running inventory cost. The
original cost is lam = -a * spread_factor(phi) * D(t) with
D = k0 / ((x0-C)*(x0-phi*C))^e; it couples the control to the crowd's flow
through D, which breaks the separability most verification arguments need.
Two separable surrogates bracket it for a >= 0:

    LOWER   -(1/2) * (eps*(a*c)^2 + D^2/eps)   (Young's inequality, scale eps)
    UPPER   -a * c * k0 / (x0 + T*M)^(2e)      (worst constant denominator)

so LOWER <= ORIGINAL <= UPPER pointwise, and the induced optimal values
sandwich the original one. The terminal reward is -l(x), a liquidation
penalty. All formulas broadcast over numpy arrays.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UsageError
from .grids import ControlBounds, Grids, MeanControlPath, make_path, reserve_floor
from .pool import PoolParams
from .streams import substream


class Variant(enum.Enum):
    ORIGINAL = "f"
    LOWER = "f1"
    UPPER = "f2"


@dataclass(frozen=True)
class RewardKind:
    """Which running reward to use (a Variant or its tag f, f1, f2), plus two knobs.

    young_eps scales the Young split in LOWER (1 reproduces the plain
    inequality with equal weights). denom_exp is the exponent e on the
    lam-family denominators: 2 matches the displayed running reward, 1 the
    Ito-consistent variant in which D(t) is exactly the aggregate price.
    """

    variant: Variant | str = Variant.ORIGINAL
    young_eps: float = 1.0
    denom_exp: int = 2

    def __post_init__(self):
        problems = []
        if self.young_eps <= 0:
            problems.append(f"young_eps must be > 0, got {self.young_eps}")
        if self.denom_exp not in (1, 2):
            problems.append(f"denom_exp must be 1 or 2, got {self.denom_exp}")
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            raise UsageError([f"variant must be one of f, f1, f2, got {self.variant!r}"]
                             + problems) from None
        if problems:
            raise DomainError(problems)

    @property
    def tag(self) -> str:
        """Interface label: f, f1, or f2."""
        return self.variant.value


@dataclass(frozen=True)
class CostSpec:
    """Running cost h(t, x), terminal cost l(x), and their growth constant c1.

    c1 must satisfy |h| + |l| <= c1*exp(c1*|x|) on the state range in use;
    check_cost_growth verifies this on a sampled grid rather than trusting it.
    """

    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    l: Callable[[np.ndarray], np.ndarray]
    c1: float = 1.0

    def __post_init__(self):
        if self.c1 <= 0:
            raise DomainError(f"c1 must be > 0, got {self.c1}")


def quadratic_costs(running: float = 0.5, terminal: float = 0.5, c1: float = 1.0) -> CostSpec:
    """h = running*x^2, l = terminal*x^2. The defaults pair with c1 = 1."""
    problems = [f"{name} must be >= 0, got {v}"
                for name, v in (("running", running), ("terminal", terminal)) if v < 0]
    try:
        costs = CostSpec(h=lambda t, x: running * np.square(x),
                         l=lambda x: terminal * np.square(x), c1=c1)
    except DomainError as exc:
        problems += exc.problems
    if problems:
        raise DomainError(problems)
    return costs


def check_cost_growth(costs: CostSpec, grids: Grids) -> float:
    """Max of (|h|+|l|)/(c1*exp(c1*|x|)) over the x-grid at 16 times in [0, T].

    Raises DomainError if the bound fails anywhere on the grid.
    """
    x = grids.x_nodes()
    ratios = []
    for t in np.linspace(0.0, grids.horizon, 16):
        num = np.abs(costs.h(t, x)) + np.abs(costs.l(x))
        ratios.append(num / (costs.c1 * np.exp(costs.c1 * np.abs(x))))
    worst = float(np.max(ratios))
    if worst > 1.0:
        raise DomainError(
            f"|h|+|l| exceeds c1*exp(c1|x|) on the grid (max ratio {worst:.3g}); raise c1"
        )
    return worst


@dataclass(frozen=True)
class BoundConstants:
    """The growth-bound constant, with what the UPPER reward reads.

    bound dominates |terminal| + |running reward| inside c*exp(c*|x|):
    c = max(c1, 2*k0*M*(x0+T*M)/eps0^4, k0*M*spread_factor/eps0^(2e)), with
    eps0 the floor grids.reserve_floor states. horizon is carried so the
    UPPER denominator (x0 + T*M) is formable.
    """

    m_bound: float
    bound: float
    horizon: float


def bound_constant(params: PoolParams, costs: CostSpec, bounds: ControlBounds,
                   horizon: float, denom_exp: int = 2) -> BoundConstants:
    m, eps0 = bounds.magnitude, reserve_floor(bounds, params.x0, horizon)
    drift_term = 2.0 * params.k0 * m * (params.x0 + horizon * m) / eps0**4
    cost_term = params.k0 * m * params.spread / eps0 ** (2 * denom_exp)
    return BoundConstants(m_bound=m, bound=max(costs.c1, drift_term, cost_term), horizon=horizon)


# --- running-reward pieces ------------------------------------------------

def drift_kernel(t, path: MeanControlPath, params: PoolParams):
    """Price sensitivity to flow: gamma(t) = m(t) * drift_kernel(t).

    k0 * ((1+phi)*x0 - 2*phi*C) / ((x0-C)^2 * (x0-phi*C)^2); always squared
    denominators (this is the derivative of the aggregate price in the
    cumulative flow, independent of denom_exp).
    """
    c = path.cumulative_at(t)
    num = (1.0 + params.phi) * params.x0 - 2.0 * params.phi * c
    den = (params.x0 - c) ** 2 * (params.x0 - params.phi * c) ** 2
    return params.k0 * num / den


def gamma(t, path: MeanControlPath, params: PoolParams):
    """Price drift induced by the crowd's flow at time t (array-friendly)."""
    return path.value_at(t) * drift_kernel(t, path, params)


def d_factor(t, path: MeanControlPath, params: PoolParams, kind: RewardKind):
    """D(t) = k0 / ((x0-C)*(x0-phi*C))^e; for e=1 this is the aggregate price."""
    c = path.cumulative_at(t)
    den = (params.x0 - c) * (params.x0 - params.phi * c)
    return params.k0 / den**kind.denom_exp


def lambda_orig(a, t, path: MeanControlPath, params: PoolParams, kind: RewardKind):
    """-a * spread_factor(phi) * D(t): the flow-coupled transaction cost."""
    return -np.asarray(a) * params.spread * d_factor(t, path, params, kind)


def lambda_lower(a, t, path: MeanControlPath, params: PoolParams, kind: RewardKind):
    """Young lower bound -(1/2)*(eps*(a*c)^2 + D(t)^2/eps), eps = young_eps."""
    ac = np.asarray(a) * params.spread
    d = d_factor(t, path, params, kind)
    return -0.5 * (kind.young_eps * ac**2 + d**2 / kind.young_eps)


def lambda_upper(a, params: PoolParams, consts: BoundConstants, kind: RewardKind):
    """Constant-denominator upper bound -a*c*k0/(x0+T*M)^(2e). Valid for a >= 0."""
    worst = (params.x0 + consts.horizon * consts.m_bound) ** (2 * kind.denom_exp)
    return -np.asarray(a) * params.spread * params.k0 / worst


def reward(kind: RewardKind, t, x, a, path: MeanControlPath, params: PoolParams,
           costs: CostSpec, consts: BoundConstants | None = None):
    """x*gamma(t) + lam_kind(t, a) - h(t, x), broadcast over (t, x, a).

    UPPER needs the bound constants for its worst-case denominator; pass the
    result of bound_constant (a UsageError reminds you if you forget).
    """
    return _base(t, x, path, params, costs) + _lam(kind, t, a, path, params, consts)


def _base(t, x, path: MeanControlPath, params: PoolParams, costs: CostSpec):
    """reward's part that no kind changes: x*gamma(t) - h(t, x)."""
    return np.asarray(x) * gamma(t, path, params) - costs.h(t, np.asarray(x))


def _lam(kind: RewardKind, t, a, path: MeanControlPath, params: PoolParams,
         consts: BoundConstants | None):
    """reward's transaction-cost term lam_kind(t, a)."""
    if kind.variant is Variant.ORIGINAL:
        return lambda_orig(a, t, path, params, kind)
    if kind.variant is Variant.LOWER:
        return lambda_lower(a, t, path, params, kind)
    if consts is None:
        raise UsageError("reward(kind=UPPER, ...) requires consts=bound_constant(...)")
    return lambda_upper(a, params, consts, kind)


def terminal_reward(x, costs: CostSpec):
    """-l(x): liquidation penalty enters the objective with a minus sign."""
    return -costs.l(np.asarray(x))


# --- growth-bound audit ---------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    max_ratio: float
    bound: float
    n_samples: int
    violations: int


def check_growth_bound(kind: RewardKind, n_samples: int, seed: int, *,
                       grids: Grids, bounds: ControlBounds, params: PoolParams,
                       costs: CostSpec,
                       consts: BoundConstants | None = None) -> GrowthReport:
    """Sample (t, x, a, m-path) uniformly and audit |g| + |f| <= c*exp(c*|x|).

    Samples are grouped into batches sharing a random admissible flow path
    (values i.i.d. uniform on the control interval). Returns the max observed
    ratio and the count of violations; the caller decides what to do with a
    nonzero count.
    """
    if n_samples < 1:
        raise UsageError(f"n_samples must be >= 1, got {n_samples}")
    if consts is None:
        consts = bound_constant(params, costs, bounds, grids.horizon, kind.denom_exp)
    rng = substream(seed, "growth", kind.tag)
    n_paths = max(1, min(64, n_samples // 256))
    per = -(-n_samples // n_paths)  # ceil: n_paths**2 - n_paths < n_samples, so no batch is empty
    max_ratio = 0.0
    violations = 0
    for i in range(n_paths):
        vals = rng.uniform(bounds.a_min, bounds.a_max, grids.n_t + 1)
        path = make_path(vals, grids, bounds, params.x0)
        m = min(per, n_samples - i * per)
        t = rng.uniform(0.0, grids.horizon, m)
        x = rng.uniform(grids.x_min, grids.x_max, m)
        a = rng.uniform(bounds.a_min, bounds.a_max, m)
        f = reward(kind, t, x, a, path, params, costs, consts)
        g = terminal_reward(x, costs)
        ratio = (np.abs(g) + np.abs(f)) / (consts.bound * np.exp(consts.bound * np.abs(x)))
        max_ratio = max(max_ratio, float(np.max(ratio)))
        violations += int(np.sum(ratio > 1.0))
    return GrowthReport(max_ratio=max_ratio, bound=consts.bound, n_samples=n_samples,
                        violations=violations)
