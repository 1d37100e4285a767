"""The benchmark's three workloads and the golden checks on their outputs.

Each workload builds its inputs from a model seed (``setup``, timed as set-up)
and runs one operation (``op``, timed per call). An operation returns
``Outputs``:

* ``values``: name -> (value, scale); drift is |value - golden| / golden
  scale. The scale of a value is its Monte Carlo standard error, except for
  the sandwich gaps (see ``_bracket``);
* ``exact``: name -> value that must equal its golden (converged flags and
  the identities that tie reported numbers to each other);
* ``sha256``: artifact file name -> hash of its bytes.

An operation fails when it raises, when the CLI returns a nonzero exit code,
when an exact output differs, or when a value drifts more than
``checks.Z_BAND`` standard errors from its golden. A byte mismatch alone is
not a failure: it shows as nonzero drift as soon as any checked value moved.

The CLI workloads always pass ``--workers``: without it ``ammfg.cli`` falls
back to ``os.cpu_count()`` (it ignores ``[run] workers``), which would tie
the numbers to the host.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

from ammfg import cli, config, fixed_point, nplayer, solver
from checks import OpFailed, Outputs

SWEEP_PHIS = "0.9,0.99,0.9999"
CROWD_SIZES = (10, 50, 250)
DEVIATION_REPS = 1000
GAP_REL = 0.025       # scale of a sandwich gap, as a share of the width V_f2 - V_f1
GAPS = {"gap": ("V_f2", "V_f1"), "gap_upper": ("V_f2", "V_f"), "gap_lower": ("V_f", "V_f1")}


def _config(seed: int, overrides) -> config.RunConfig:
    cfg = config.load_config(None, [f"grids.seed={seed}", *overrides])
    config.validate(cfg)
    return cfg


def _bundle(cfg) -> dict:
    return dict(grids=config.grids(cfg), bounds=config.bounds(cfg),
                params=config.pool_params(cfg), costs=config.cost_spec(cfg),
                law0=config.law0(cfg))


def _run_cli(argv: list[str], artifact: str) -> bytes:
    """Run ``ammfg <argv>`` in-process and return the artifact's bytes."""
    if os.path.exists(artifact):
        os.remove(artifact)
    with contextlib.redirect_stdout(io.StringIO()):   # stdout carries the report
        rc = cli.run(argv)
    if rc != 0:
        raise OpFailed(f"ammfg {' '.join(argv)} exited with code {rc}")
    with open(artifact, "rb") as fh:
        return fh.read()


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _same(a: float, b: float) -> bool:
    """Equal up to float rounding: a refactor may reorder the arithmetic."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _bracket(out: Outputs, tag: str, v: dict, se: dict, reported: dict) -> float:
    """Record the bracket V_f1 <= V_f <= V_f2 and its gaps, names prefixed by ``tag``.

    The three values are estimated on common random numbers, so their
    differences carry far less Monte Carlo noise than the unpaired standard
    errors suggest: across the golden panel's seeds a gap's standard
    deviation is at most ~4% of the sandwich width V_f2 - V_f1. So each gap
    is recomputed from the values and checked on the scale GAP_REL * width,
    and the reported gap must equal the recomputed one; a swapped or
    mislabelled value then fails. Returns the gap scale.
    """
    scale = GAP_REL * abs(v["V_f2"] - v["V_f1"])
    for key in ("V_f1", "V_f", "V_f2"):
        out.values[tag + key] = (v[key], se[key])
    for key, (hi, lo) in GAPS.items():
        gap = v[hi] - v[lo]
        out.values[tag + key] = (gap, scale)
        out.exact[f"{tag}{key}.is_difference"] = _same(reported[key], gap)
    return scale


class _CliWorkload:
    command: str = ""
    artifact: str = ""
    extra: tuple[str, ...] = ()

    def __init__(self, workdir: str, overrides=(), workers: int = 1):
        self.workdir = workdir
        self.overrides = tuple(overrides)
        self.workers = workers

    def setup(self, seed: int):
        _config(seed, self.overrides)
        out = os.path.join(self.workdir, self.name)
        argv = [self.command, *self.extra, "--seed", str(seed),
                "--workers", str(self.workers), "--out", out]
        for item in self.overrides:
            argv += ["--set", item]
        return argv, os.path.join(out, self.artifact)

    def op(self, inputs) -> Outputs:
        argv, artifact = inputs
        raw = _run_cli(argv, artifact)
        out = self.parse(raw)
        out.sha256[self.artifact] = _digest(raw)
        return out


class Sandwich(_CliWorkload):
    """``ammfg sandwich``: three Picard solves, two best responses, five evaluations."""

    name = "sandwich"
    command = "sandwich"
    artifact = "sandwich.json"

    def parse(self, raw: bytes) -> Outputs:
        doc = json.loads(raw)
        out = Outputs()
        scale = _bracket(out, "", {k: doc[k]["V"] for k in ("V_f1", "V_f", "V_f2")},
                         {k: doc[k]["stderr"] for k in ("V_f1", "V_f", "V_f2")}, doc)
        # epsilon = gap + 3 gap_se; a standard error over n paths has standard
        # error ~ se / sqrt(2(n-1))
        eps, gap_se = doc["certificate"]["epsilon"], doc["gap_se"]
        out.exact["epsilon.is_gap_plus_3se"] = _same(eps, doc["gap"] + 3.0 * gap_se)
        se_of_se = gap_se / math.sqrt(2 * (doc["V_f1"]["n_paths"] - 1))
        out.values["epsilon"] = (eps, math.hypot(scale, 3.0 * se_of_se))
        for key in ("converged_f1", "converged_f2", "converged_f"):
            out.exact[key] = doc[key]
        return out


class Sweep(_CliWorkload):
    """``ammfg sweep``: the sandwich at three fee levels on a thread pool."""

    name = "sweep"
    command = "sweep"
    artifact = "sweep.csv"
    extra = ("--phis", SWEEP_PHIS)

    def __init__(self, workdir: str, overrides=(), workers: int = 2):
        super().__init__(workdir, overrides, workers)

    def parse(self, raw: bytes) -> Outputs:
        lines = [ln for ln in raw.decode().splitlines() if not ln.startswith("#")]
        out = Outputs()
        for row in csv.DictReader(lines):
            tag = f"phi={row['phi']}."
            _bracket(out, tag, {k: float(row[k]) for k in ("V_f1", "V_f", "V_f2")},
                     {k: float(row[k + "_se"]) for k in ("V_f1", "V_f", "V_f2")},
                     {k: float(row[k]) for k in GAPS})
            for key in ("converged_f1", "converged_f2"):
                out.exact[tag + key] = row[key]
            out.exact[tag + "error"] = row.get("error", "")
        return out


class Deviation:
    """Criterion 11: impact-aware deviant best response and paired gain per crowd size.

    Set-up solves the default original-reward equilibrium; one operation runs,
    for each crowd size, the deviant ``solve_hjb`` and a ``deviation_gain``.
    """

    name = "deviation"

    def __init__(self, workdir: str, overrides=(), reps: int = DEVIATION_REPS):
        self.workdir = workdir
        self.overrides = tuple(overrides)
        self.reps = reps

    def setup(self, seed: int):
        cfg = _config(seed, self.overrides)
        b = _bundle(cfg)
        kind = config.reward_kind(cfg)
        eq = fixed_point.solve_mfg(kind, fp=config.fixed_point_config(cfg), seed=seed, **b)
        return dict(b=b, kind=kind, eq=eq, seed=seed)

    def op(self, inputs) -> Outputs:
        b, kind, eq, seed = inputs["b"], inputs["kind"], inputs["eq"], inputs["seed"]
        out = Outputs()
        out.values["equilibrium.V"] = (eq.value.value, eq.value.stderr)
        out.exact["equilibrium.converged"] = bool(eq.converged)
        for n in CROWD_SIZES:
            fn = nplayer.impact_aware_reward(n, b["params"], b["costs"], kind)
            deviant = solver.solve_hjb(eq.path, kind, b["grids"], b["bounds"], b["params"],
                                       b["costs"], reward_fn=fn)
            g = nplayer.deviation_gain(eq.policy, deviant,
                                       nplayer.SimConfig(n_traders=n, n_reps=self.reps),
                                       seed=seed, **b)
            out.values[f"n={n}.gain"] = (g.gain, g.stderr)
            # a sample standard deviation has standard error ~ s / sqrt(2(R-1))
            out.values[f"n={n}.stderr"] = (g.stderr, g.stderr / math.sqrt(2 * (g.n_reps - 1)))
        return out


WORKLOADS = {cls.name: cls for cls in (Sandwich, Sweep, Deviation)}
