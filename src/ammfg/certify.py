"""Sandwich certificates: bracketing the intractable equilibrium value.

The original running reward couples control and crowd flow, so its
equilibrium is out of reach of the standard verification arguments. The two
separable surrogates are not: solve the LOWER and UPPER mean-field problems,
evaluate their equilibrium values V_f1 and V_f2, and best-respond under the
ORIGINAL reward against each auxiliary equilibrium path. Every report also
solves the original game; its damped fixed point, when converged, is a third
candidate. Pointwise f1 <= f <= f2 on nonnegative controls then forces

    V_f1 <= V_f <= V_f2        (within Monte Carlo error),

and gap = V_f2 - V_f1 certifies both auxiliary policies as (gap + 3*stderr)-
Nash for the original game. V_f is reported as the max over best-response
candidates and is a lower bound on the true supremum.

All runs share one seed, so every value estimate in a report (and across the
fee levels of a sweep) is computed on common random numbers; the reported
standard errors are the conservative unpaired combinations. A report
evaluates once, in lockstep: its seven values are five walks (each
auxiliary policy on its own path is valued under its own reward and under
f), moved together on one row of normals per step, and each value is
bitwise what a lone evaluate call returns. The particle push's draws are
made once per report, and once per sweep, whose forked worker processes
inherit them copy-on-write. Each report owns one push log
(solver.propagate's _log), which holds those draws and is never shared
between a sweep's fee levels: its three solves' bang-bang policies often
differ only in the last bits of their switches, and then the later solves
replay the first one's pushes instead of walking them. The last solve, the
original game, reads the log through a read-only view: no solve after it
would replay its pushes, so it walks them unlogged. The three solves run in
one Picard session with a forked twin (_fork.twin) that walks half of each
walked push's particles, bit for bit; the best responses, the evaluation
walk and the report itself stay in the calling process. A sweep with more than
one worker runs its fee levels in forked processes (see phi_sweep), through
the fork helper _fork.fork_map that the N-trader simulator uses too; a level
worker opens no twin, while a sweep on one worker gives each level's report
its own.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._fork import fork_map, twin
from .errors import AdmissibilityError, UsageError
from .fixed_point import EquilibriumResult, FixedPointConfig, solve_mfg
from .grids import ControlBounds, Grids, InitialLaw
from .pool import PoolParams
from .rewards import CostSpec, RewardKind, Variant
from .solver import ValueReport, _evaluate_walkers, propagate_noise, solve_hjb


@dataclass
class SandwichReport:
    phi: float
    spread: float
    young_eps: float
    denom_exp: int
    v_f1: ValueReport
    v_f2: ValueReport
    v_f: ValueReport
    v_f_source: str
    candidates: dict[str, ValueReport]
    converged_f1: bool
    converged_f2: bool
    converged_f: bool
    gap: float
    gap_se: float
    gap_upper: float
    gap_upper_se: float
    gap_lower: float
    gap_lower_se: float
    direct_bounds: dict[str, float]
    controls_certified: list[str]
    eq_lower: EquilibriumResult = field(repr=False)
    eq_upper: EquilibriumResult = field(repr=False)
    eq_orig: EquilibriumResult = field(repr=False)

    def to_dict(self) -> dict:
        """JSON-ready view (drops the heavyweight equilibrium objects)."""
        def vr(r: ValueReport) -> dict:
            return {"V": r.value, "stderr": r.stderr, "n_paths": r.n_paths,
                    "bias_budget": r.bias_budget}

        return {
            "phi": self.phi,
            "spread_factor": self.spread,
            "young_eps": self.young_eps,
            "denom_exp": self.denom_exp,
            "V_f1": vr(self.v_f1),
            "V_f": vr(self.v_f),
            "V_f2": vr(self.v_f2),
            "V_f_source": self.v_f_source,
            "V_f_candidates": {k: vr(v) for k, v in self.candidates.items()},
            "converged_f1": self.converged_f1,
            "converged_f2": self.converged_f2,
            "converged_f": self.converged_f,
            "gap": self.gap,
            "gap_se": self.gap_se,
            "gap_upper": self.gap_upper,
            "gap_upper_se": self.gap_upper_se,
            "gap_lower": self.gap_lower,
            "gap_lower_se": self.gap_lower_se,
            "direct_bounds": self.direct_bounds,
            "controls_certified": self.controls_certified,
        }


def _combined_se(a: ValueReport, b: ValueReport) -> float:
    return float(np.hypot(a.stderr, b.stderr))


def sandwich_report(grids: Grids, bounds: ControlBounds, params: PoolParams,
                    costs: CostSpec, law0: InitialLaw, fp: FixedPointConfig,
                    young_eps: float = RewardKind.young_eps,
                    denom_exp: int = RewardKind.denom_exp,
                    seed: int | None = None, noise=None) -> SandwichReport:
    """Run the full sandwich at one fee level.

    Refuses control intervals reaching below zero: the UPPER surrogate only
    bounds the original cost from above on a >= 0, so the bracket would be
    silently wrong there. noise is the pair propagate_noise(seed, grids, law0)
    returns, drawn here when not given; every equilibrium solve reads it from
    the report's push log, and a pair of other shapes is refused (UsageError).
    """
    if bounds.a_min < 0:
        raise AdmissibilityError(
            "sandwich certificates require a_min >= 0 (the upper surrogate "
            "reverses for negative controls)"
        )
    seed = grids.seed if seed is None else seed
    # the report's push log, shared by its three solves, holds its noise pair
    log = {"noise": propagate_noise(seed, grids, law0) if noise is None else noise}
    kind_o = RewardKind(Variant.ORIGINAL, young_eps, denom_exp)

    def solve(variant: Variant, view=log) -> EquilibriumResult:
        return solve_mfg(RewardKind(variant, young_eps, denom_exp), grids, bounds, params,
                         costs, law0, fp, seed=seed, _log=view)

    with twin(grids.n_particles):  # one twin for the three solves' pushes
        eq1, eq2 = solve(Variant.LOWER), solve(Variant.UPPER)
        eq_orig = solve(Variant.ORIGINAL, MappingProxyType(log))
    del solve, log  # read no more: a report that drew its noise frees it here
    br1, br2 = (solve_hjb(eq.path, kind_o, grids, bounds, params, costs) for eq in (eq1, eq2))

    # the report's five distinct (policy, path) walks, in one lockstep pass:
    # each auxiliary policy is held under its own reward and under f
    [(eq1.value, held1), (eq2.value, held2), (v_br1,), (v_br2,), (eq_orig.value,)] = \
        _evaluate_walkers([(eq1.policy, eq1.path, [eq1.kind, kind_o]),
                           (eq2.policy, eq2.path, [eq2.kind, kind_o]),
                           (br1, eq1.path, [kind_o]), (br2, eq2.path, [kind_o]),
                           (eq_orig.policy, eq_orig.path, [kind_o])],
                          grids, bounds, params, costs, law0, seed)
    candidates = {"against_f1_path": v_br1, "against_f2_path": v_br2}
    # deviation benefit of abandoning the auxiliary policy under f
    direct = {"alpha_hat_1": v_br1.value - held1.value,
              "alpha_hat_2": v_br2.value - held2.value}
    if eq_orig.converged:
        candidates["own_fixed_point"] = eq_orig.value

    v_f_source = max(candidates, key=lambda lbl: candidates[lbl].value)
    v_f = candidates[v_f_source]
    v_f1, v_f2 = eq1.value, eq2.value

    return SandwichReport(
        phi=params.phi, spread=params.spread,
        young_eps=young_eps, denom_exp=denom_exp,
        v_f1=v_f1, v_f2=v_f2, v_f=v_f, v_f_source=v_f_source, candidates=candidates,
        converged_f1=eq1.converged, converged_f2=eq2.converged, converged_f=eq_orig.converged,
        gap=v_f2.value - v_f1.value, gap_se=_combined_se(v_f1, v_f2),
        gap_upper=v_f2.value - v_f.value, gap_upper_se=_combined_se(v_f2, v_f),
        gap_lower=v_f.value - v_f1.value, gap_lower_se=_combined_se(v_f, v_f1),
        direct_bounds=direct, controls_certified=["alpha_hat_1", "alpha_hat_2"],
        eq_lower=eq1, eq_upper=eq2, eq_orig=eq_orig,
    )


@dataclass(frozen=True)
class EpsilonNashCertificate:
    epsilon: float
    gap: float
    gap_se: float
    direct_bounds: dict[str, float]
    direct_within_epsilon: dict[str, bool]
    controls_certified: list[str]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def epsilon_nash_certificate(report: SandwichReport) -> EpsilonNashCertificate:
    """epsilon = gap + 3*combined stderr, the lemma-based deviation bound.

    Both auxiliary policies are epsilon-Nash for the original game. The
    report's direct best-response surrogates are compared against epsilon as
    a consistency check; a partial sandwich (either auxiliary run not
    converged, or non-finite values) is refused.
    """
    if not (report.converged_f1 and report.converged_f2):
        bad = [tag for tag, ok in (("f1", report.converged_f1), ("f2", report.converged_f2))
               if not ok]
        raise UsageError(
            f"partial sandwich: auxiliary run(s) {', '.join(bad)} did not converge; "
            "no certificate can be issued"
        )
    if not (np.isfinite(report.gap) and np.isfinite(report.gap_se)):
        raise UsageError("partial sandwich: non-finite gap")
    eps = report.gap + 3.0 * report.gap_se
    within = {k: bool(v <= eps) for k, v in report.direct_bounds.items()}
    return EpsilonNashCertificate(
        epsilon=eps, gap=report.gap, gap_se=report.gap_se,
        direct_bounds=dict(report.direct_bounds), direct_within_epsilon=within,
        controls_certified=list(report.controls_certified),
    )


SWEEP_COLUMNS = ["phi", "spread_factor", "V_f1", "V_f1_se", "V_f", "V_f_se",
                 "V_f2", "V_f2_se", "gap", "gap_upper", "gap_lower",
                 "converged_f1", "converged_f2", "converged_f", "error"]


def phi_sweep(phis, grids: Grids, bounds: ControlBounds, params: PoolParams,
              costs: CostSpec, law0: InitialLaw, fp: FixedPointConfig,
              young_eps: float = RewardKind.young_eps, denom_exp: int = RewardKind.denom_exp,
              seed: int | None = None, workers: int = 1) -> list[dict]:
    """Sandwich at each fee level; per-level failures land in the row.

    Rows come back in the order of ``phis`` with the same values under any
    worker count; all levels share the same seed, and so one pair of
    propagate draws. Besides the SWEEP_COLUMNS a row carries ``stalled``,
    the stall line (EquilibriumResult.stall_line) of each of its three runs
    that did not converge. The levels go through _fork.fork_map: with
    ``workers`` > 1 and more than one level they run on min(workers,
    len(phis)) forked processes, which inherit the draws and the inputs, so
    only the fee levels go out and only the rows come back. Without fork (or
    on one worker or level) they run in order here.
    """
    phis = [float(p) for p in phis]
    seed = grids.seed if seed is None else seed
    noise = propagate_noise(seed, grids, law0)

    def one(phi: float) -> dict:
        row = {c: float("nan") for c in SWEEP_COLUMNS}
        row["phi"] = phi
        row["converged_f1"] = row["converged_f2"] = row["converged_f"] = False
        row["error"] = ""
        row["stalled"] = []
        try:
            p = dataclasses.replace(params, phi=phi)
            rep = sandwich_report(grids, bounds, p, costs, law0, fp, young_eps=young_eps,
                                  denom_exp=denom_exp, seed=seed, noise=noise)
            row.update({
                "spread_factor": rep.spread,
                "V_f1": rep.v_f1.value, "V_f1_se": rep.v_f1.stderr,
                "V_f": rep.v_f.value, "V_f_se": rep.v_f.stderr,
                "V_f2": rep.v_f2.value, "V_f2_se": rep.v_f2.stderr,
                "gap": rep.gap, "gap_upper": rep.gap_upper, "gap_lower": rep.gap_lower,
                "converged_f1": rep.converged_f1, "converged_f2": rep.converged_f2,
                "converged_f": rep.converged_f,
                "stalled": [eq.stall_line(fp.tol) for eq in (rep.eq_lower, rep.eq_upper,
                                                             rep.eq_orig) if not eq.converged],
            })
        except Exception as exc:  # recorded, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    return fork_map(one, phis, workers)
