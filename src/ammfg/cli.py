"""Batch command line: solve / sandwich / sweep / simulate / check.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure,
3 non-convergence (partial outputs are still written). The output directory
comes from --out, else the AMMFG_OUT environment variable, else the config.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import artifacts, config as cfgmod
from .certify import SWEEP_COLUMNS, epsilon_nash_certificate, phi_sweep, sandwich_report
from .errors import ConfigError, NumericalError, UsageError
from .fixed_point import solve_mfg
from .grids import make_path, zero_path
from .rewards import RewardKind, Variant, bound_constant, check_growth_bound, reward
from .solver import _stderr, evaluate, girsanov_evaluate, solve_hjb
from .nplayer import simulate
from .streams import substream

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for numerical
    # failures, so route usage problems through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ammfg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", help="output directory (overrides AMMFG_OUT and config)")
        p.add_argument("--seed", type=int, help="override grids.seed")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override one configuration value (repeatable)")
        p.add_argument("--workers", type=int,
                       help="override run.workers, the processes a sweep spreads its fee "
                            "levels over (default 1); it does not govern a solve's twin process")

    p = sub.add_parser("solve", help="solve one mean field equilibrium")
    p.add_argument("--kind", choices=[v.value for v in Variant],
                   help="reward variant (default: reward.kind from config)")
    common(p)

    p = sub.add_parser("sandwich", help="bracket the original value between surrogates")
    common(p)

    p = sub.add_parser("sweep", help="sandwich gap across fee levels")
    p.add_argument("--phis", required=True,
                   help="comma separated retention factors, e.g. 0.9,0.99,0.997")
    common(p)

    p = sub.add_parser("simulate", help="finite-player market simulation")
    p.add_argument("--n", type=int, help="override sim.n_traders")
    p.add_argument("--reps", type=int, help="override sim.n_reps")
    common(p)

    p = sub.add_parser("check", help="run the property audits and write a report")
    p.add_argument("--samples", type=int, default=20_000,
                   help="sample count per audit (default 20000)")
    common(p)

    return parser


def _load(args) -> tuple[cfgmod.RunConfig, str, str]:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"grids.seed={args.seed}")
    if args.workers is not None:
        overrides.append(f"run.workers={args.workers}")
    if getattr(args, "kind", None):
        overrides.append(f"reward.kind={args.kind}")
    if getattr(args, "n", None) is not None:
        overrides.append(f"sim.n_traders={args.n}")
    if getattr(args, "reps", None) is not None:
        overrides.append(f"sim.n_reps={args.reps}")
    cfg = cfgmod.load_config(args.config, overrides)
    cfgmod.validate(cfg)
    out_dir = args.out or os.environ.get("AMMFG_OUT") or cfg.out_dir
    return cfg, cfgmod.config_hash(cfg), out_dir


def _bundle(cfg):
    return dict(grids=cfgmod.grids(cfg), bounds=cfgmod.bounds(cfg),
                params=cfgmod.pool_params(cfg), costs=cfgmod.cost_spec(cfg),
                law0=cfgmod.law0(cfg))


def _stalled(runs, tol: float) -> bool:
    """Print each run that did not converge, with both of its residuals next to tol."""
    for eq in (eq for eq in runs if not eq.converged):
        print(eq.stall_line(tol), file=sys.stderr)
    return not all(eq.converged for eq in runs)


def _cmd_solve(args) -> int:
    cfg, h, out_dir = _load(args)
    b = _bundle(cfg)
    result = solve_mfg(cfgmod.reward_kind(cfg), fp=cfgmod.fixed_point_config(cfg),
                       seed=cfg.seed, **b)
    files = artifacts.write_equilibrium(result, out_dir, h, cfg.seed)
    for f in files:
        print(f)
    if _stalled([result], cfg.tol):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_sandwich(args) -> int:
    cfg, h, out_dir = _load(args)
    b = _bundle(cfg)
    report = sandwich_report(fp=cfgmod.fixed_point_config(cfg), young_eps=cfg.young_eps,
                             denom_exp=cfg.denom_exp, seed=cfg.seed, **b)
    doc = report.to_dict()
    doc["certificate"] = None
    if report.converged_f1 and report.converged_f2:
        doc["certificate"] = epsilon_nash_certificate(report).to_dict()
    print(artifacts.write_json(doc, out_dir, "sandwich.json", h, cfg.seed))
    if _stalled([report.eq_lower, report.eq_upper, report.eq_orig], cfg.tol):
        print("sandwich is partial", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg, h, out_dir = _load(args)
    try:
        phis = [float(tok) for tok in args.phis.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--phis: {exc}") from None
    if not phis:
        raise UsageError("--phis: need at least one value")
    b = _bundle(cfg)
    rows = phi_sweep(phis, fp=cfgmod.fixed_point_config(cfg), young_eps=cfg.young_eps,
                     denom_exp=cfg.denom_exp, seed=cfg.seed, workers=cfg.workers, **b)
    table = ([r[c] for c in SWEEP_COLUMNS] for r in rows)
    print(artifacts.write_csv(SWEEP_COLUMNS, table, out_dir, "sweep.csv", h, cfg.seed))
    for r in rows:
        for line in [*r["stalled"], r["error"]]:
            if line:
                print(f"phi={r['phi']}: {line}", file=sys.stderr)
    if any(r["error"] for r in rows):
        return EXIT_NUMERICAL
    # a level stalls on the rule `sandwich` exits 3 on: any of its three runs
    if any(r["stalled"] for r in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg, h, out_dir = _load(args)
    b = _bundle(cfg)
    eq = solve_mfg(cfgmod.reward_kind(cfg), fp=cfgmod.fixed_point_config(cfg),
                   seed=cfg.seed, **b)
    sim = simulate(eq.policy, cfgmod.sim_config(cfg), seed=cfg.seed, **b)
    profits = sim.profits.ravel()
    doc = {
        "n_traders": cfg.n_traders,
        "n_reps": sim.profits.shape[0],
        "price_mode": cfg.price_mode,
        "profit_mean": float(profits.mean()),
        "profit_stderr": _stderr(profits),
        "mean_control": sim.mean_control,
        "price_path": sim.price_path,
        "mode_discrepancy": sim.mode_discrepancy,
        "k_min_increment": sim.k_min_increment,
        "floored_steps": sim.floored_steps,
        "equilibrium": artifacts.equilibrium_summary(eq),
    }
    print(artifacts.write_json(doc, out_dir, "sim_summary.json", h, cfg.seed))
    if _stalled([eq], cfg.tol):
        print("simulated policy is approximate", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _audit_growth(cfg, b, n_samples, seed) -> dict:
    kind = cfgmod.reward_kind(cfg)
    rep = check_growth_bound(kind, n_samples, seed, grids=b["grids"], bounds=b["bounds"],
                             params=b["params"], costs=b["costs"])
    return {"property": "growth_bound", "pass": rep.violations == 0,
            "max_slack": rep.max_ratio - 1.0, "max_ratio": rep.max_ratio,
            "bound_constant": rep.bound, "n_samples": rep.n_samples,
            "violations": rep.violations}


def _sample_points(b, n_samples, seed, label):
    rng = substream(seed, "check", label)
    g, bounds = b["grids"], b["bounds"]
    vals = rng.uniform(bounds.a_min, bounds.a_max, g.n_t + 1)
    path = make_path(vals, g, bounds, b["params"].x0)
    t = rng.uniform(0.0, g.horizon, n_samples)
    x = rng.uniform(g.x_min, g.x_max, n_samples)
    a = rng.uniform(max(bounds.a_min, 0.0), bounds.a_max, n_samples)
    return path, t, x, a


def _audit_ordering(cfg, b, n_samples, seed) -> dict:
    path, t, x, a = _sample_points(b, n_samples, seed, "ordering")
    params, costs = b["params"], b["costs"]
    consts = bound_constant(params, costs, b["bounds"], b["grids"].horizon, cfg.denom_exp)
    f1, f, f2 = (reward(RewardKind(v, cfg.young_eps, cfg.denom_exp), t, x, a, path,
                        params, costs, consts)
                 for v in (Variant.LOWER, Variant.ORIGINAL, Variant.UPPER))
    slack = float(max(np.max(f1 - f), np.max(f - f2)))
    return {"property": "ordering", "pass": slack <= 1e-9, "max_slack": slack,
            "n_samples": int(t.size)}


def _audit_concavity(cfg, b, n_samples, seed) -> dict:
    path, t, x, _ = _sample_points(b, n_samples, seed, "concavity")
    params, costs, bounds = b["params"], b["costs"], b["bounds"]
    consts = bound_constant(params, costs, bounds, b["grids"].horizon, cfg.denom_exp)
    da = max(1e-4, 0.05 * (bounds.a_max - max(bounds.a_min, 0.0)))
    mid = 0.5 * (max(bounds.a_min, 0.0) + bounds.a_max)
    worst = -np.inf
    args = (path, params, costs, consts)
    for v in Variant:
        kind = RewardKind(v, cfg.young_eps, cfg.denom_exp)
        lo = reward(kind, t, x, mid - da, *args)
        ce = reward(kind, t, x, mid, *args)
        hi = reward(kind, t, x, mid + da, *args)
        second = (lo - 2.0 * ce + hi) / da**2
        worst = max(worst, float(np.max(second)))
    return {"property": "concavity", "pass": worst <= 1e-7, "max_slack": worst,
            "n_samples": int(t.size)}


def _audit_girsanov(cfg, b, seed) -> dict:
    # scaled-down run: the audit is about estimator agreement, not resolution
    g = dataclasses.replace(b["grids"], n_t=20, n_x=61, n_a=11, n_particles=4000)
    params = b["params"]
    if params.sigma <= 0:
        return {"property": "girsanov_agreement", "pass": True, "max_slack": 0.0,
                "skipped": "sigma = 0 (change of measure undefined)"}
    kind = cfgmod.reward_kind(cfg)
    bounds, costs, law0 = b["bounds"], b["costs"], b["law0"]
    path = zero_path(g, bounds, params.x0)
    policy = solve_hjb(path, kind, g, bounds, params, costs)
    direct = evaluate(policy, path, kind, g, bounds, params, costs, law0, seed=seed)
    reweighted = girsanov_evaluate(policy, path, kind, g, bounds, params, costs, law0,
                                   seed=seed)
    diff = abs(direct.value - reweighted.value)
    band = 3.0 * float(np.hypot(direct.stderr, reweighted.stderr)) + direct.bias_budget
    return {"property": "girsanov_agreement", "pass": diff <= band,
            "max_slack": diff - band, "difference": diff, "band": band,
            "direct": direct.value, "reweighted": reweighted.value,
            "direct_exit_fraction": direct.exit_fraction,
            "reweighted_exit_fraction": reweighted.exit_fraction}


def _cmd_check(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    cfg, h, out_dir = _load(args)
    b, seed = _bundle(cfg), cfg.seed
    audits = [
        _audit_growth(cfg, b, args.samples, seed),
        _audit_ordering(cfg, b, args.samples, seed),
        _audit_concavity(cfg, b, args.samples, seed),
        _audit_girsanov(cfg, b, seed),
    ]
    ok = all(a["pass"] for a in audits)
    doc = {"all_pass": ok, "audits": audits}
    print(artifacts.write_json(doc, out_dir, "check_report.json", h, seed))
    for a in audits:
        status = "pass" if a["pass"] else "FAIL"
        print(f"{a['property']}: {status} (max slack {a['max_slack']:.3g})")
    return EXIT_OK if ok else EXIT_NUMERICAL


_COMMANDS = {"solve": _cmd_solve, "sandwich": _cmd_sandwich, "sweep": _cmd_sweep,
             "simulate": _cmd_simulate, "check": _cmd_check}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
