"""Damped Picard iteration for the mean-field equilibrium.

The equilibrium map sends a candidate mean path m to the mean path induced
by best-responding to it: Phi(m) = propagate(solve_hjb(m)). Iterates are
damped, m_{k+1} = (1-damping)*m_k + damping*Phi(m_k), with the Monte Carlo
noise inside Phi frozen across iterations (common random numbers), so the
iteration runs on a deterministic map and the residual sup_t |m_{k+1} - m_k|
is meaningful below the Monte Carlo scale. That noise is one block of
normals and one starting sample (solver.propagate_noise), drawn once per
solve. A sandwich report's solves draw nothing: each passes the push log
they share (solver.propagate's _log) through to its pushes. A lone solve
logs nothing. The loop runs in the calling process.

Convergence of this iteration is an empirical matter, not a theorem;
a run that exhausts max_iters reports converged=False and still returns its
last iterate, policy, and value. The map is evaluated once per iterate, so
k iterations make k+1 best-response + propagate rounds: the last round, on
the returned iterate, is the certification round. After the Picard loop,
one evaluate call estimates the returned policy's value on the returned
path; a solve given a report's log skips it, and the report evaluates its
three solves, with its other values, in one walk.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .grids import ControlBounds, Grids, InitialLaw, MeanControlPath, make_path, zero_path
from .errors import DomainError
from .pool import PoolParams
from .rewards import CostSpec, RewardKind
from .solver import Policy, ValueReport, evaluate, propagate, propagate_noise, solve_hjb


@dataclass(frozen=True)
class FixedPointConfig:
    damping: float = 0.5
    tol: float = 1e-3
    max_iters: int = 200

    def __post_init__(self):
        problems = []
        if not 0.0 < self.damping <= 1.0:
            problems.append(f"damping must be in (0, 1], got {self.damping}")
        if self.tol <= 0:
            problems.append(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            problems.append(f"max_iters must be >= 1, got {self.max_iters}")
        if problems:
            raise DomainError(problems)


@dataclass
class EquilibriumResult:
    """The last Picard iterate with the best response to it.

    residuals holds one sup-distance per Picard iteration (iterations is its
    length); post_residual is the certification round's damped distance, and
    exit_fraction the share of that round's particles that hit the grid edges.
    """

    kind: RewardKind
    path: MeanControlPath
    policy: Policy
    value: ValueReport
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    post_residual: float = float("nan")
    exit_fraction: float = 0.0

    def stall_line(self, tol: float) -> str:
        """The line naming this run as stalled: its iterations and both residuals next to tol."""
        return (f"run {self.kind.tag} did not converge after {self.iterations} iterations: "
                f"in-loop residual {self.residuals[-1]:.3g}, post-certification residual "
                f"{self.post_residual:.3g}, tol {tol:.3g}")


def solve_mfg(kind: RewardKind, grids: Grids, bounds: ControlBounds, params: PoolParams,
              costs: CostSpec, law0: InitialLaw, fp: FixedPointConfig,
              seed: int | None = None, init: MeanControlPath | None = None,
              reward_fn=None, _log: Mapping | None = None) -> EquilibriumResult:
    """Damped Picard iteration from ``init`` (default: the zero path) on grids' time grid.

    The returned policy is the best response to the final iterate (one extra
    solver round), and the reported value evaluates that policy against it.
    converged requires both the in-loop residual and the post-certification
    residual damping*sup|Phi(m*) - m*| to sit at or below tol. The solve
    draws its propagate noise once and every propagate call reads it.
    _log, a sandwich report's push log (see solver.propagate), is passed to
    each propagate call in place of that draw; value is then None, for the
    report fills it from its one evaluation walk.
    """
    seed = grids.seed if seed is None else seed
    noise = propagate_noise(seed, grids, law0) if _log is None else None
    path = zero_path(grids, bounds, params.x0) if init is None else init

    residuals: list[float] = []
    while True:
        policy = solve_hjb(path, kind, grids, bounds, params, costs, reward_fn=reward_fn)
        induced, exit_fraction = propagate(policy, grids, bounds, params, law0, noise=noise,
                                           _log=_log)
        # the map's run on the last iterate is the certification round
        if len(residuals) == fp.max_iters or (residuals and residuals[-1] <= fp.tol):
            break
        mixed = (1.0 - fp.damping) * path.values + fp.damping * induced.values
        nxt = make_path(mixed, grids, bounds, params.x0)
        residuals.append(path.sup_distance(nxt))
        path = nxt

    post = fp.damping * path.sup_distance(induced)
    value = evaluate(policy, path, kind, grids, bounds, params, costs, law0,
                     seed=seed, reward_fn=reward_fn) if _log is None else None
    return EquilibriumResult(kind=kind, path=path, policy=policy, value=value,
                             residuals=residuals,
                             converged=residuals[-1] <= fp.tol and post <= fp.tol,
                             iterations=len(residuals), post_residual=post,
                             exit_fraction=exit_fraction)
