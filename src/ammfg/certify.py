"""Sandwich certificates: bracketing the intractable equilibrium value.

The original running reward couples control and crowd flow, so its
equilibrium is out of reach of the standard verification arguments. The two
separable surrogates are not: solve the LOWER and UPPER mean-field problems,
evaluate their equilibrium values V_f1 and V_f2, and best-respond under the
ORIGINAL reward against each auxiliary equilibrium path (plus the original
reward's own damped fixed point when it converges). Pointwise
f1 <= f <= f2 on nonnegative controls then forces

    V_f1 <= V_f <= V_f2        (within Monte Carlo error),

and gap = V_f2 - V_f1 certifies both auxiliary policies as (gap + 3*stderr)-
Nash for the original game. V_f is reported as the max over best-response
candidates and is a lower bound on the true supremum.

All runs share one seed, so every value estimate in a report (and across the
fee levels of a sweep) is computed on common random numbers; the reported
standard errors are the conservative unpaired combinations. The particle
push's normals are drawn once per report, and once per sweep, whose threads
share the read-only block.
"""
from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, UsageError
from .fixed_point import EquilibriumResult, FixedPointConfig, solve_mfg
from .grids import ControlBounds, Grids, InitialLaw
from .pool import PoolParams, spread_factor
from .rewards import CostSpec, RewardKind, Variant
from .solver import ValueReport, evaluate, propagate_noise, solve_hjb


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
    converged_f: bool | None
    gap: float
    gap_se: float
    gap_upper: float
    gap_upper_se: float
    gap_lower: float
    gap_lower_se: float
    direct_bounds: dict[str, float]
    controls_certified: list[str]
    eq_lower: EquilibriumResult = field(repr=False, default=None)  # type: ignore[assignment]
    eq_upper: EquilibriumResult = field(repr=False, default=None)  # type: ignore[assignment]
    eq_orig: EquilibriumResult | None = field(repr=False, default=None)

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
                    young_eps: float = 1.0, denom_exp: int = 2,
                    seed: int | None = None, solve_original: bool = True,
                    noise=None) -> SandwichReport:
    """Run the full sandwich at one fee level.

    Refuses control intervals reaching below zero: the UPPER surrogate only
    bounds the original cost from above on a >= 0, so the bracket would be
    silently wrong there. noise is the block propagate_noise(seed, grids)
    returns, drawn here when not given; every equilibrium solve reads it.
    """
    if bounds.a_min < 0:
        raise AdmissibilityError(
            "sandwich certificates require a_min >= 0 (the upper surrogate "
            "reverses for negative controls)"
        )
    seed = grids.seed if seed is None else seed
    if noise is None:
        noise = propagate_noise(seed, grids)
    kind_l = RewardKind(Variant.LOWER, young_eps, denom_exp)
    kind_u = RewardKind(Variant.UPPER, young_eps, denom_exp)
    kind_o = RewardKind(Variant.ORIGINAL, young_eps, denom_exp)

    eq1 = solve_mfg(kind_l, grids, bounds, params, costs, law0, fp, seed=seed, noise=noise)
    eq2 = solve_mfg(kind_u, grids, bounds, params, costs, law0, fp, seed=seed, noise=noise)

    candidates: dict[str, ValueReport] = {}
    direct: dict[str, float] = {}
    for label, eq in (("against_f1_path", eq1), ("against_f2_path", eq2)):
        br = solve_hjb(eq.path, kind_o, grids, bounds, params, costs)
        v_br = evaluate(br, eq.path, kind_o, grids, bounds, params, costs, law0, seed=seed)
        candidates[label] = v_br
        # deviation benefit of abandoning the auxiliary policy under f
        held = evaluate(eq.policy, eq.path, kind_o, grids, bounds, params, costs, law0,
                        seed=seed)
        key = "alpha_hat_1" if label == "against_f1_path" else "alpha_hat_2"
        direct[key] = v_br.value - held.value

    eq_orig: EquilibriumResult | None = None
    converged_f: bool | None = None
    if solve_original:
        eq_orig = solve_mfg(kind_o, grids, bounds, params, costs, law0, fp, seed=seed,
                            noise=noise)
        converged_f = eq_orig.converged
        if eq_orig.converged:
            candidates["own_fixed_point"] = eq_orig.value

    v_f_source = max(candidates, key=lambda lbl: candidates[lbl].value)
    v_f = candidates[v_f_source]
    v_f1, v_f2 = eq1.value, eq2.value

    return SandwichReport(
        phi=params.phi, spread=float(spread_factor(params.phi)),
        young_eps=young_eps, denom_exp=denom_exp,
        v_f1=v_f1, v_f2=v_f2, v_f=v_f, v_f_source=v_f_source, candidates=candidates,
        converged_f1=eq1.converged, converged_f2=eq2.converged, converged_f=converged_f,
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
    requested_epsilon: float | None = None
    certified_for_requested: bool | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def epsilon_nash_certificate(report: SandwichReport,
                             requested_epsilon: float | None = None) -> EpsilonNashCertificate:
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
    certified = None if requested_epsilon is None else bool(eps < requested_epsilon)
    return EpsilonNashCertificate(
        epsilon=eps, gap=report.gap, gap_se=report.gap_se,
        direct_bounds=dict(report.direct_bounds), direct_within_epsilon=within,
        controls_certified=list(report.controls_certified),
        requested_epsilon=requested_epsilon, certified_for_requested=certified,
    )


SWEEP_COLUMNS = ["phi", "spread_factor", "V_f1", "V_f1_se", "V_f", "V_f_se",
                 "V_f2", "V_f2_se", "gap", "gap_upper", "gap_lower",
                 "converged_f1", "converged_f2", "error"]


def phi_sweep(phis, grids: Grids, bounds: ControlBounds, params: PoolParams,
              costs: CostSpec, law0: InitialLaw, fp: FixedPointConfig,
              young_eps: float = 1.0, denom_exp: int = 2, seed: int | None = None,
              solve_original: bool = True, workers: int = 1) -> list[dict]:
    """Sandwich at each fee level; per-level failures land in the row.

    Rows come back in the order of ``phis`` regardless of worker count; all
    levels share the same seed, and so one block of propagate normals.
    """
    phis = [float(p) for p in phis]
    seed = grids.seed if seed is None else seed
    noise = propagate_noise(seed, grids)

    def one(phi: float) -> dict:
        row = {c: float("nan") for c in SWEEP_COLUMNS}
        row["phi"] = phi
        row["converged_f1"] = row["converged_f2"] = False
        row["error"] = ""
        try:
            p = dataclasses.replace(params, phi=phi)
            rep = sandwich_report(grids, bounds, p, costs, law0, fp, young_eps=young_eps,
                                  denom_exp=denom_exp, seed=seed,
                                  solve_original=solve_original, noise=noise)
            row.update({
                "spread_factor": rep.spread,
                "V_f1": rep.v_f1.value, "V_f1_se": rep.v_f1.stderr,
                "V_f": rep.v_f.value, "V_f_se": rep.v_f.stderr,
                "V_f2": rep.v_f2.value, "V_f2_se": rep.v_f2.stderr,
                "gap": rep.gap, "gap_upper": rep.gap_upper, "gap_lower": rep.gap_lower,
                "converged_f1": rep.converged_f1, "converged_f2": rep.converged_f2,
            })
        except Exception as exc:  # recorded, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    if workers <= 1 or len(phis) <= 1:
        return [one(p) for p in phis]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, phis))
