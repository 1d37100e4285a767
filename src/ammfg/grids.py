"""Discretization grids, control bounds, and mean-control flow paths.

The solvers work on a fixed rectangular lattice: n_t uniform time steps on
[0, T], n_x inventory nodes on [x_min, x_max], n_a control nodes on
[a_min, a_max]. A population's average trading rate is carried as a
MeanControlPath: node values m(t_k), their trapezoidal cumulative
C(t_k) = integral of m, and the implied pool reserve path R = x0 - C.

Admissibility: a control bound M = max(|a_min|, |a_max|) with M < x0/T
guarantees R stays above the floor eps0 = x0 - T*M > 0 for every path whose
values respect the bounds, which keeps every denominator in the reward
functionals away from zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, UsageError


@dataclass(frozen=True)
class Grids:
    """Lattice sizes and the Monte Carlo ensemble configuration."""

    horizon: float = 1.0
    n_t: int = 100
    x_min: float = -3.0
    x_max: float = 3.0
    n_x: int = 201
    n_a: int = 41
    n_particles: int = 10_000
    n_quad: int = 5
    seed: int = 20240814

    def __post_init__(self):
        problems = []
        if self.horizon <= 0:
            problems.append(f"horizon must be > 0, got {self.horizon}")
        if self.n_t < 1:
            problems.append(f"n_t must be >= 1, got {self.n_t}")
        if not self.x_min < self.x_max:
            problems.append(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_x < 2:
            problems.append(f"n_x must be >= 2, got {self.n_x}")
        if self.n_a < 1:
            problems.append(f"n_a must be >= 1, got {self.n_a}")
        if self.n_particles < 1:
            problems.append(f"n_particles must be >= 1, got {self.n_particles}")
        if self.n_quad < 5:
            problems.append(f"n_quad must be >= 5, got {self.n_quad}")
        if problems:
            raise UsageError(problems)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_t + 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)


@dataclass(frozen=True)
class ControlBounds:
    """Compact control interval [a_min, a_max] containing the origin."""

    a_min: float = 0.0
    a_max: float = 0.5

    def __post_init__(self):
        problems = []
        if not self.a_min <= self.a_max:
            problems.append(f"a_min must be <= a_max, got [{self.a_min}, {self.a_max}]")
        if self.a_min > 0 or self.a_max < 0:
            problems.append(f"a_min must be <= 0 <= a_max (the control interval must "
                            f"contain 0), got [{self.a_min}, {self.a_max}]")
        if problems:
            raise AdmissibilityError(problems)

    @property
    def magnitude(self) -> float:
        """M = max |a| over the interval."""
        return max(abs(self.a_min), abs(self.a_max))

    def grid(self, n_a: int) -> np.ndarray:
        if n_a == 1:
            # degenerate interval or a singleton grid pinned at the clamped origin
            return np.array([min(max(0.0, self.a_min), self.a_max)])
        return np.linspace(self.a_min, self.a_max, n_a)


@dataclass(frozen=True)
class InitialLaw:
    """Gaussian initial inventory law; std = 0 is a point mass."""

    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        if self.std < 0:
            raise UsageError(f"std must be >= 0, got {self.std}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.std == 0.0:
            return np.full(n, self.mean)
        return self.mean + self.std * rng.standard_normal(n)


@dataclass(frozen=True)
class MeanControlPath:
    """Average trading rate of the crowd on the time lattice.

    values[k] = m(t_k); cumulative[k] = trapezoidal integral of m up to t_k;
    reserve[k] = x0 - cumulative[k], which make_path checks against the
    floor reserve_floor states.
    """

    times: np.ndarray
    values: np.ndarray
    cumulative: np.ndarray = field(repr=False)
    reserve: np.ndarray = field(repr=False)

    def value_at(self, t) -> np.ndarray:
        """Piecewise-linear interpolation of m for off-node queries."""
        return np.interp(t, self.times, self.values)

    def cumulative_at(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.cumulative)

    def sup_distance(self, other: "MeanControlPath") -> float:
        if self.times.shape != other.times.shape or not np.allclose(
            self.times, other.times, rtol=0, atol=1e-12
        ):
            raise UsageError("paths live on different time grids")
        return float(np.max(np.abs(self.values - other.values)))

    def rows(self):
        """(t, m, C, R) tuples, the CSV serialization order."""
        return zip(self.times, self.values, self.cumulative, self.reserve)


def reserve_floor(bounds: ControlBounds, x0: float, horizon: float) -> float:
    """The reserve floor eps0 = x0 - T*M of admissible bounds (M < x0/T).

    The one admissibility rule: AdmissibilityError for any other bounds.
    """
    m = bounds.magnitude
    if not m < x0 / horizon:
        raise AdmissibilityError(
            f"bounds magnitude {m} not < x0/T = {x0 / horizon}: the pool reserve could deplete")
    return x0 - horizon * m


def make_path(values, grids: Grids, bounds: ControlBounds, x0: float) -> MeanControlPath:
    """Validate node values and assemble the flow path.

    Raises AdmissibilityError naming the first offending node if a value
    leaves [a_min, a_max], if the bounds are inadmissible for (x0, T), or if
    the reserve path dips below the floor (possible only through float
    round-off once values are in bounds; equality with eps0 is admissible).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grids.n_t + 1,):
        raise UsageError(
            f"need {grids.n_t + 1} node values for n_t={grids.n_t}, got shape {values.shape}"
        )
    eps0 = reserve_floor(bounds, x0, grids.horizon)
    bad = np.nonzero((values < bounds.a_min - 1e-12) | (values > bounds.a_max + 1e-12))[0]
    if bad.size:
        k = int(bad[0])
        raise AdmissibilityError(
            f"node {k} (t={k * grids.dt:.6g}): value {values[k]} outside "
            f"[{bounds.a_min}, {bounds.a_max}]"
        )
    times = grids.t_nodes()
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times)))
    )
    reserve = x0 - cumulative
    low = np.nonzero(reserve < eps0 - 1e-9 * x0)[0]
    if low.size:
        k = int(low[0])
        raise AdmissibilityError(
            f"node {k} (t={times[k]:.6g}): reserve {reserve[k]} below floor {eps0}"
        )
    return MeanControlPath(times=times, values=values, cumulative=cumulative, reserve=reserve)


def zero_path(grids: Grids, bounds: ControlBounds, x0: float) -> MeanControlPath:
    return make_path(np.zeros(grids.n_t + 1), grids, bounds, x0)
