"""Run configuration: flat key=value sections, validation, and hashing.

A run is fully determined by (config, seed); the sha256 hash of the
canonicalized key=value listing is embedded in every output artifact so
results can be traced back to the exact configuration that produced them.
_SECTIONS is the one schema, and RunConfig is derived from it: each key takes
its default and type from its section's builder, except the three keys in
_OWN_DEFAULTS, which take both from their default there. An INI file that
does not parse is a ConfigError; in one that does, a % is literal and a
[DEFAULT] section is refused.
Validation is collect-all: every violation is reported in one ConfigError
rather than one at a time. Each parameter rule lives in the value object the
parameter builds; validate only adds the rules that span objects.
"""
from __future__ import annotations

import configparser
import dataclasses
import hashlib
import inspect
import math

from .errors import AdmissibilityError, ConfigError, DomainError, UsageError
from .grids import ControlBounds, Grids, InitialLaw, reserve_floor
from .fixed_point import FixedPointConfig
from .nplayer import SimConfig
from .pool import PoolParams
from .rewards import CostSpec, RewardKind, check_cost_growth, quadratic_costs

# section -> (builder of its value object, its keys); [run] builds nothing
_SECTIONS = {
    "pool": (PoolParams, ("x0", "k0", "phi", "sigma0", "sigma")),
    "costs": (quadratic_costs, ("running_cost", "terminal_cost", "c1")),
    "grids": (Grids, ("horizon", "n_t", "x_min", "x_max", "n_x", "n_a", "n_particles",
                      "n_quad", "seed")),
    "controls": (ControlBounds, ("a_min", "a_max")),
    "reward": (RewardKind, ("kind", "young_eps", "denom_exp")),
    "fixed_point": (FixedPointConfig, ("damping", "tol", "max_iters")),
    "law0": (InitialLaw, ("law_mean", "law_std")),
    "sim": (SimConfig, ("n_traders", "n_reps", "price_mode", "use_mid_price", "p_min")),
    "run": (None, ("out_dir", "workers")),
}

# config key -> builder argument where the two names differ; read backwards,
# it names a builder's problem by its config key
_ALIASES = {"running_cost": "running", "terminal_cost": "terminal", "kind": "variant",
            "law_mean": "mean", "law_std": "std"}
_KEY_OF = {arg: key for key, arg in _ALIASES.items()}

# the defaults that no builder states
_OWN_DEFAULTS = {"kind": "f", "out_dir": "out", "workers": 1}


def _field(key: str, build) -> tuple:
    """(name, type, default) of one key, read off its builder's signature."""
    param = inspect.signature(build).parameters[_ALIASES.get(key, key)] if build else None
    default = _OWN_DEFAULTS[key] if key in _OWN_DEFAULTS else param.default
    ftype = type(default).__name__ if key in _OWN_DEFAULTS else param.annotation
    return key, ftype, dataclasses.field(default=default)


RunConfig = dataclasses.make_dataclass(
    "RunConfig", [_field(key, build) for build, keys in _SECTIONS.values() for key in keys],
    namespace={"__module__": __name__,
               "__doc__": "Every config key, flat and in _SECTIONS order."})

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_SECTION_OF = {key: sec for sec, (_, keys) in _SECTIONS.items() for key in keys}


def _coerce(name: str, raw: str):
    ftype = _FIELD_TYPES[name]
    raw = raw.strip()
    if ftype == "bool":
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
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
        # no interpolation, so a % is literal; no default section (a header
        # is never empty), so [DEFAULT] is an unknown section like any other
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError([" ".join(f"cannot parse {path!r}: {exc}".split())]) from None
        if not read:
            raise ConfigError([f"cannot read config file {path!r}"])
        for sec in parser.sections():
            if sec not in _SECTIONS:
                problems.append(f"unknown section [{sec}]")
                continue
            for key, raw in parser.items(sec):
                if _SECTION_OF.get(key) != sec:
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
    return "".join(f"{sec}.{key}={getattr(cfg, key)!r}\n"
                   for sec in sorted(_SECTIONS) if sec != "run"
                   for key in sorted(_SECTIONS[sec][1]))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]


# --- object builders --------------------------------------------------------

def _build(cfg: RunConfig, section: str):
    build, keys = _SECTIONS[section]
    return build(**{_ALIASES.get(key, key): getattr(cfg, key) for key in keys})


def pool_params(cfg: RunConfig) -> PoolParams:
    return _build(cfg, "pool")


def cost_spec(cfg: RunConfig) -> CostSpec:
    return _build(cfg, "costs")


def grids(cfg: RunConfig) -> Grids:
    return _build(cfg, "grids")


def bounds(cfg: RunConfig) -> ControlBounds:
    return _build(cfg, "controls")


def law0(cfg: RunConfig) -> InitialLaw:
    return _build(cfg, "law0")


def fixed_point_config(cfg: RunConfig) -> FixedPointConfig:
    return _build(cfg, "fixed_point")


def reward_kind(cfg: RunConfig) -> RewardKind:
    return _build(cfg, "reward")


def sim_config(cfg: RunConfig) -> SimConfig:
    return _build(cfg, "sim")


def validate(cfg: RunConfig) -> None:
    """Collect every violation; raise ConfigError listing them all.

    Every section is built into its value object, and each problem the object
    reports is named by its section.key. The rules that span objects
    (admissibility, cost growth) or belong to none (run.workers) follow.
    """
    bad: list[str] = []
    built = {}
    for section, (build, _) in _SECTIONS.items():
        if build is None:
            continue
        try:
            built[section] = _build(cfg, section)
        except (AdmissibilityError, DomainError, UsageError) as exc:
            for problem in exc.problems:
                name, _, rest = problem.partition(" ")
                bad.append(f"{section}.{_KEY_OF.get(name, name)} {rest}")
    if {"pool", "grids", "controls"} <= built.keys():
        ctrl = built["controls"]
        try:
            reserve_floor(ctrl, built["pool"].x0, built["grids"].horizon)
        except AdmissibilityError as exc:  # filed under the bound of larger magnitude
            key = "a_max" if ctrl.a_max >= -ctrl.a_min else "a_min"
            bad += [f"controls.{key}: {problem}" for problem in exc.problems]
    if {"costs", "grids"} <= built.keys():
        try:
            check_cost_growth(built["costs"], built["grids"])
        except DomainError as exc:
            bad.append(f"costs.c1: {exc}")
    if cfg.workers < 1:
        bad.append(f"run.workers must be >= 1, got {cfg.workers}")
    if bad:
        raise ConfigError(bad)
