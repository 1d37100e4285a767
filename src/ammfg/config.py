"""Run configuration: flat key=value sections, validation, and hashing.

A run is fully determined by (config, seed); the sha256 hash of the
canonicalized key=value listing is embedded in every output artifact so
results can be traced back to the exact configuration that produced them.
Validation is collect-all: every violation is reported in one ConfigError
rather than one at a time. Each parameter rule lives in the value object the
parameter builds; validate only adds the rules that span objects.
"""
from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass

from .errors import AdmissibilityError, ConfigError, DomainError, UsageError
from .grids import ControlBounds, Grids, InitialLaw, admissible
from .fixed_point import FixedPointConfig
from .nplayer import SimConfig
from .pool import PoolParams
from .rewards import CostSpec, RewardKind, check_cost_growth, quadratic_costs


@dataclass
class RunConfig:
    # [pool]
    x0: float = 100.0
    k0: float = 1e6
    phi: float = 0.997
    sigma0: float = 0.0
    sigma: float = 0.5
    # [costs]
    running_cost: float = 0.5
    terminal_cost: float = 0.5
    c1: float = 1.0
    # [grids]
    horizon: float = 1.0
    n_t: int = 100
    x_min: float = -3.0
    x_max: float = 3.0
    n_x: int = 201
    n_a: int = 41
    n_particles: int = 10_000
    n_quad: int = 5
    seed: int = 20240814
    # [controls]
    a_min: float = 0.0
    a_max: float = 0.5
    # [reward]
    kind: str = "f"
    young_eps: float = 1.0
    denom_exp: int = 2
    # [fixed_point]
    damping: float = 0.5
    tol: float = 1e-3
    max_iters: int = 200
    # [law0]
    law_mean: float = 0.0
    law_std: float = 0.0
    # [sim]
    n_traders: int = 50
    n_reps: int = 200
    price_mode: str = "aggregate"
    use_mid_price: bool = True
    p_min: float = 1e-6
    # [run]
    out_dir: str = "out"
    workers: int = 1


_SECTIONS: dict[str, tuple[str, ...]] = {
    "pool": ("x0", "k0", "phi", "sigma0", "sigma"),
    "costs": ("running_cost", "terminal_cost", "c1"),
    "grids": ("horizon", "n_t", "x_min", "x_max", "n_x", "n_a", "n_particles",
              "n_quad", "seed"),
    "controls": ("a_min", "a_max"),
    "reward": ("kind", "young_eps", "denom_exp"),
    "fixed_point": ("damping", "tol", "max_iters"),
    "law0": ("law_mean", "law_std"),
    "sim": ("n_traders", "n_reps", "price_mode", "use_mid_price", "p_min"),
    "run": ("out_dir", "workers"),
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_SECTION_OF = {key: sec for sec, keys in _SECTIONS.items() for key in keys}


def _coerce(name: str, raw: str):
    ftype = _FIELD_TYPES[name]
    raw = raw.strip()
    if ftype == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{name}: expected a finite number, got {raw!r}")
        return value
    return raw


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the INI file, then key=value overrides (key or its section.key)."""
    cfg = RunConfig()
    problems: list[str] = []
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError([f"cannot read config file {path!r}"])
        for sec in parser.sections():
            if sec not in _SECTIONS:
                problems.append(f"unknown section [{sec}]")
                continue
            for key, raw in parser.items(sec):
                if key not in _SECTIONS[sec]:
                    problems.append(f"unknown key {sec}.{key}")
                    continue
                try:
                    setattr(cfg, key, _coerce(key, raw))
                except ValueError as exc:
                    problems.append(f"{sec}.{key}: {exc}")
    for item in overrides or []:
        if "=" not in item:
            problems.append(f"override {item!r} is not key=value")
            continue
        dotted, raw = item.split("=", 1)
        section, _, key = (part.strip() for part in dotted.rpartition("."))
        if key not in _SECTION_OF:
            problems.append(f"unknown override key {dotted!r}")
            continue
        if section not in ("", _SECTION_OF[key]):
            problems.append(f"override {dotted!r}: {key} belongs to [{_SECTION_OF[key]}]")
            continue
        try:
            setattr(cfg, key, _coerce(key, raw))
        except ValueError as exc:
            problems.append(f"override {dotted}: {exc}")
    if problems:
        raise ConfigError(problems)
    return cfg


def canonical_text(cfg: RunConfig) -> str:
    # [run] holds plumbing (workers, out_dir) that must not change results,
    # so it stays out of the hash: same config+seed, same bytes, any workers.
    buf = io.StringIO()
    for sec in sorted(_SECTIONS):
        if sec == "run":
            continue
        for key in sorted(_SECTIONS[sec]):
            buf.write(f"{sec}.{key}={getattr(cfg, key)!r}\n")
    return buf.getvalue()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]


# --- object builders --------------------------------------------------------

def pool_params(cfg: RunConfig) -> PoolParams:
    return PoolParams(x0=cfg.x0, k0=cfg.k0, phi=cfg.phi, sigma0=cfg.sigma0,
                      sigma=cfg.sigma)


def cost_spec(cfg: RunConfig) -> CostSpec:
    return quadratic_costs(cfg.running_cost, cfg.terminal_cost, cfg.c1)


def grids(cfg: RunConfig) -> Grids:
    return Grids(horizon=cfg.horizon, n_t=cfg.n_t, x_min=cfg.x_min, x_max=cfg.x_max,
                 n_x=cfg.n_x, n_a=cfg.n_a, n_particles=cfg.n_particles,
                 n_quad=cfg.n_quad, seed=cfg.seed)


def bounds(cfg: RunConfig) -> ControlBounds:
    return ControlBounds(a_min=cfg.a_min, a_max=cfg.a_max)


def law0(cfg: RunConfig) -> InitialLaw:
    return InitialLaw(mean=cfg.law_mean, std=cfg.law_std)


def fixed_point_config(cfg: RunConfig) -> FixedPointConfig:
    return FixedPointConfig(damping=cfg.damping, tol=cfg.tol, max_iters=cfg.max_iters)


def reward_kind(cfg: RunConfig, kind: str | None = None) -> RewardKind:
    return RewardKind.from_tag(kind or cfg.kind, cfg.young_eps, cfg.denom_exp)


def sim_config(cfg: RunConfig) -> SimConfig:
    return SimConfig(n_traders=cfg.n_traders, n_reps=cfg.n_reps,
                     price_mode=cfg.price_mode, use_mid_price=cfg.use_mid_price,
                     p_min=cfg.p_min)


_BUILDERS = {"pool": pool_params, "costs": cost_spec, "grids": grids, "controls": bounds,
             "reward": reward_kind, "fixed_point": fixed_point_config, "law0": law0,
             "sim": sim_config}

# builder arguments whose name differs from their config key
_KEYS = {"costs": {"running": "running_cost", "terminal": "terminal_cost"},
         "reward": {"tag": "kind"},
         "law0": {"mean": "law_mean", "std": "law_std"}}


def validate(cfg: RunConfig) -> None:
    """Collect every violation; raise ConfigError listing them all.

    Every section is built into its value object, and each problem the object
    reports is named by its section.key. The rules that span objects
    (admissibility, cost growth) or belong to none (run.workers) follow.
    """
    bad: list[str] = []
    built = {}
    for section, build in _BUILDERS.items():
        try:
            built[section] = build(cfg)
        except (AdmissibilityError, DomainError, UsageError) as exc:
            keys = _KEYS.get(section, {})
            for problem in exc.problems:
                name, _, rest = problem.partition(" ")
                bad.append(f"{section}.{keys.get(name, name)} {rest}")
    if {"pool", "grids", "controls"} <= built.keys():
        ctrl, x0, horizon = built["controls"], built["pool"].x0, built["grids"].horizon
        if not admissible(ctrl, x0, horizon)[0]:
            key = "a_max" if ctrl.a_max >= -ctrl.a_min else "a_min"
            bad.append(f"controls.{key}: magnitude {ctrl.magnitude} must be < "
                       f"x0/horizon = {x0 / horizon} (the pool could deplete)")
    if {"costs", "grids"} <= built.keys():
        try:
            check_cost_growth(built["costs"], built["grids"])
        except DomainError as exc:
            bad.append(f"costs.c1: {exc}")
    if cfg.workers < 1:
        bad.append(f"run.workers must be >= 1, got {cfg.workers}")
    if bad:
        raise ConfigError(bad)
