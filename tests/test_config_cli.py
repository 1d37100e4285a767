import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ammfg import cli, config as cfgmod
from ammfg.cli import run
from ammfg.errors import ConfigError
from ammfg.fixed_point import FixedPointConfig
from ammfg.grids import ControlBounds, Grids, InitialLaw
from ammfg.nplayer import SimConfig
from ammfg.pool import PoolParams
from ammfg.rewards import RewardKind, quadratic_costs

SMALL_INI = """\
[grids]
n_t = 20
n_x = 61
n_a = 11
n_particles = 2000
seed = 101

[fixed_point]
max_iters = 60

[sim]
n_traders = 5
n_reps = 10
"""


@pytest.fixture()
def small_ini(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL_INI)
    return str(p)


def test_defaults_valid():
    cfg = cfgmod.load_config()
    assert cfg.x0 == 100.0 and cfg.phi == 0.997 and cfg.seed == 20240814
    assert cfg.n_x == 201 and cfg.kind == "f" and cfg.workers == 1
    cfgmod.validate(cfg)


def test_ini_and_overrides(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[pool]\nphi = 0.9\nsigma = 0.25\n"
                 "[sim]\nuse_mid_price = off\n"
                 "[grids]\nn_t = 40\n")
    cfg = cfgmod.load_config(str(p))
    assert cfg.phi == 0.9 and cfg.sigma == 0.25
    assert cfg.use_mid_price is False and cfg.n_t == 40
    # later overrides beat the file; bare keys resolve like dotted ones
    cfg2 = cfgmod.load_config(str(p), ["pool.phi=0.95", "n_t=17"])
    assert cfg2.phi == 0.95 and cfg2.n_t == 17


def test_load_collects_every_problem(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[fees]\nbps = 30\n"
                 "[pool]\nfee_bps = 30\n"
                 "[grids]\nn_t = abc\n")
    with pytest.raises(ConfigError) as exc:
        cfgmod.load_config(str(p), ["no_equals", "pool.bogus=1"])
    msgs = exc.value.violations
    assert len(msgs) == 5
    joined = "\n".join(msgs)
    assert "[fees]" in joined and "pool.fee_bps" in joined
    assert "grids.n_t" in joined and "no_equals" in joined
    assert "pool.bogus" in joined


def test_override_section_must_own_its_key(tmp_path, capsys):
    # the section of a dotted override is checked, not dropped: pool.n_t
    # would otherwise set grids.n_t
    with pytest.raises(ConfigError) as exc:
        cfgmod.load_config(None, ["pool.n_t=5", "nonsense.phi=0.5"])
    joined = "\n".join(exc.value.violations)
    assert "n_t belongs to [grids]" in joined and "phi belongs to [pool]" in joined
    assert run(["solve", "--set", "pool.n_t=5", "--out", str(tmp_path)]) == 1
    assert "n_t belongs to [grids]" in capsys.readouterr().err


def test_load_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        cfgmod.load_config("/nonexistent/run.ini")


@pytest.mark.parametrize("section,key,raw", [
    ("pool", "sigma", "nan"), ("pool", "k0", "inf"), ("pool", "sigma0", "inf"),
    ("fixed_point", "tol", "nan"), ("sim", "p_min", "nan"),
    ("reward", "young_eps", "nan"), ("law0", "law_mean", "nan"),
    ("law0", "law_std", "inf"), ("grids", "x_max", "inf"),
    ("costs", "running_cost", "nan"), ("costs", "c1", "-inf")])
def test_non_finite_numbers_refused(section, key, raw, tmp_path, capsys):
    # NaN passes every range rule (its comparisons are false): law_mean=nan
    # used to end in an IndexError, tol=nan in max_iters Picard rounds
    with pytest.raises(ConfigError, match=f"override {key}: {key}: expected a finite"):
        cfgmod.load_config(None, [f"{key}={raw}"])
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=f"{section}.{key}: {key}: expected a finite"):
        cfgmod.load_config(str(ini))
    assert run(["solve", "--set", f"{section}.{key}={raw}", "--out", str(tmp_path)]) == 1
    assert f"{key}: expected a finite number" in capsys.readouterr().err


def test_validate_collects_every_violation():
    cfg = cfgmod.load_config(None, ["pool.x0=-1", "pool.phi=1.5",
                                    "grids.n_quad=2", "fixed_point.damping=0"])
    with pytest.raises(ConfigError) as exc:
        cfgmod.validate(cfg)
    assert len(exc.value.violations) >= 4
    joined = "\n".join(exc.value.violations)
    for frag in ("pool.x0", "pool.phi", "grids.n_quad", "fixed_point.damping"):
        assert frag in joined


def test_validate_bad_kind_keeps_reward_problems():
    cfg = cfgmod.load_config(None, ["reward.kind=zz", "reward.young_eps=-1",
                                    "reward.denom_exp=3"])
    with pytest.raises(ConfigError) as exc:
        cfgmod.validate(cfg)
    joined = "\n".join(exc.value.violations)
    for frag in ("reward.kind", "reward.young_eps", "reward.denom_exp"):
        assert frag in joined


def test_validate_negative_cost_keeps_c1_problem():
    cfg = cfgmod.load_config(None, ["costs.running_cost=-1", "costs.c1=-2"])
    with pytest.raises(ConfigError) as exc:
        cfgmod.validate(cfg)
    joined = "\n".join(exc.value.violations)
    assert "costs.running_cost" in joined and "costs.c1" in joined


def test_validate_control_interval():
    cfg = cfgmod.load_config(None, ["controls.a_min=0.1"])
    with pytest.raises(ConfigError, match="contain 0"):
        cfgmod.validate(cfg)


@pytest.mark.parametrize("override, key", [("controls.a_max=150", "a_max"),
                                           ("controls.a_min=-150", "a_min")])
def test_validate_files_inadmissible_bounds_under_the_larger_bound(override, key):
    # at x0 = 100 and T = 1 a bound of magnitude 150 could deplete the pool
    cfg = cfgmod.load_config(None, [override])
    assert (cfg.x0, cfg.horizon) == (100.0, 1.0)
    with pytest.raises(ConfigError) as exc:
        cfgmod.validate(cfg)
    assert exc.value.violations == [
        f"controls.{key}: bounds magnitude 150.0 not < x0/T = 100.0: "
        "the pool reserve could deplete"]


def test_hash_ignores_run_section():
    cfg = cfgmod.load_config()
    moved = dataclasses.replace(cfg, out_dir="elsewhere", workers=16)
    assert cfgmod.config_hash(cfg) == cfgmod.config_hash(moved)
    text = cfgmod.canonical_text(cfg)
    assert "run." not in text and "pool.x0=100.0" in text
    bumped = dataclasses.replace(cfg, x0=101.0)
    assert cfgmod.config_hash(cfg) != cfgmod.config_hash(bumped)


def test_builders_round_trip():
    cfg = cfgmod.load_config(None, ["reward.young_eps=2.0", "law0.law_std=0.3"])
    assert cfgmod.pool_params(cfg) == PoolParams(100.0, 1e6, 0.997, sigma0=0.0, sigma=0.5)
    assert cfgmod.grids(cfg) == Grids()
    assert cfgmod.bounds(cfg) == ControlBounds(0.0, 0.5)
    assert cfgmod.law0(cfg) == InitialLaw(0.0, 0.3)
    assert cfgmod.fixed_point_config(cfg) == FixedPointConfig(0.5, 1e-3, 200)
    assert cfgmod.sim_config(cfg) == SimConfig()
    assert cfgmod.reward_kind(cfg).tag == "f"
    k1 = cfgmod.reward_kind(cfgmod.load_config(None, ["reward.kind=f1", "reward.young_eps=2.0"]))
    assert k1.tag == "f1" and k1.young_eps == 2.0


def test_config_hash_is_pinned(small_ini):
    # every artifact carries this hash: a schema change that moves it must be
    # deliberate, not a side effect
    assert cfgmod.config_hash(cfgmod.load_config()) == "11869fcb120d335f"
    assert cfgmod.config_hash(cfgmod.load_config(small_ini)) == "b82234cbdf454a85"


def test_run_config_is_derived_from_the_schema():
    fields = dataclasses.fields(cfgmod.RunConfig)
    assert [f.name for f in fields] == [
        key for _, keys in cfgmod._SECTIONS.values() for key in keys]
    assert all(type(f.default).__name__ == f.type for f in fields)
    # each default is its value object's own default
    cfg = cfgmod.RunConfig()
    assert cfgmod.pool_params(cfg) == PoolParams(100.0, 1e6, 0.997)
    assert cfgmod.grids(cfg) == Grids()
    assert cfgmod.bounds(cfg) == ControlBounds()
    assert cfgmod.law0(cfg) == InitialLaw()
    assert cfgmod.fixed_point_config(cfg) == FixedPointConfig()
    assert cfgmod.sim_config(cfg) == SimConfig()
    assert cfgmod.reward_kind(cfg) == RewardKind()
    costs = inspect.signature(quadratic_costs).parameters.values()
    assert (cfg.running_cost, cfg.terminal_cost, cfg.c1) == tuple(p.default for p in costs)
    assert (cfg.out_dir, cfg.workers) == ("out", 1)


def test_readme_schema_matches_sections():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented = []
    for line in block.splitlines():
        section, keys = line.split("]", 1)
        documented.append((section.lstrip("["), tuple(k.strip() for k in keys.split(","))))
    assert documented == [(sec, keys) for sec, (_, keys) in cfgmod._SECTIONS.items()]


def test_percent_in_a_value_is_literal(tmp_path):
    ini = tmp_path / "pct.ini"
    ini.write_text("[run]\nout_dir = runs/%Y\n")
    assert cfgmod.load_config(str(ini)).out_dir == "runs/%Y"


@pytest.mark.parametrize("text,expect", [
    ("seed = 3\n", "no section headers"),
    ("[grids]\nseed = 3\nseed = 4\n", "option 'seed' in section 'grids' already exists"),
    ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
    ("[DEFAULT]\nseed = 3\n[pool]\nphi = 0.9\n", "unknown section [DEFAULT]"),
    ("[pool]\nphi = 99%\n", "pool.phi: could not convert"),
])
def test_malformed_ini_is_a_configuration_error(text, expect, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "o"
    assert run(["solve", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and expect in err
    assert "Traceback" not in err and "pool.seed" not in err
    assert not out.exists()


# --- command line ------------------------------------------------------------

def test_cli_usage_errors(tmp_path, capsys):
    assert run(["solve", "--bogus"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["solve", "--set", "junk"]) == 1
    assert run(["solve", "--set", "pool.phi=abc"]) == 1
    assert run(["solve", "--set", "pool.phi=2.0"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "configuration error" in err


def _read_lines(path, n):
    with open(path) as fh:
        return [next(fh).rstrip("\n") for _ in range(n)]


def test_cli_solve_writes_stamped_artifacts(small_ini, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["solve", "--config", small_ini, "--out", out1]) == 0
    printed = capsys.readouterr().out.splitlines()
    names = ("equilibrium.csv", "policy.csv", "equilibrium.json")
    assert [p.rsplit("/", 1)[-1] for p in printed] == list(names)

    cfg = cfgmod.load_config(small_ini)
    h = cfgmod.config_hash(cfg)
    head = _read_lines(f"{out1}/equilibrium.csv", 3)
    assert head == [f"# config_hash={h}", "# seed=101", "t,m,C,R"]
    head = _read_lines(f"{out1}/policy.csv", 3)
    assert head[:2] == [f"# config_hash={h}", "# seed=101"]
    assert head[2] == "t,x,a_star,V"
    doc = json.load(open(f"{out1}/equilibrium.json"))
    assert doc["config_hash"] == h and doc["seed"] == 101
    assert doc["converged"] is True and doc["kind"] == "f"
    assert len(doc["residuals"]) == doc["iterations"]

    assert run(["solve", "--config", small_ini, "--out", out2]) == 0
    for name in names:
        a = open(f"{out1}/{name}", "rb").read()
        b = open(f"{out2}/{name}", "rb").read()
        assert a == b


def test_cli_solve_kind_flag(small_ini, tmp_path):
    out = str(tmp_path / "f1run")
    assert run(["solve", "--kind", "f1", "--config", small_ini, "--out", out]) == 0
    doc = json.load(open(f"{out}/equilibrium.json"))
    assert doc["kind"] == "f1"


def test_cli_out_dir_precedence(small_ini, tmp_path, monkeypatch):
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("AMMFG_OUT", str(env_dir))
    assert run(["solve", "--config", small_ini]) == 0
    assert (env_dir / "equilibrium.json").exists()
    assert run(["solve", "--config", small_ini, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "equilibrium.json").exists()


def test_cli_solve_nonconvergence_still_writes(small_ini, tmp_path, capsys):
    out = str(tmp_path / "stall")
    code = run(["solve", "--config", small_ini, "--out", out,
                "--set", "fixed_point.max_iters=1",
                "--set", "fixed_point.tol=1e-12"])
    assert code == 3
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    doc = json.load(open(f"{out}/equilibrium.json"))
    assert doc["converged"] is False and doc["iterations"] == 1


def test_cli_names_the_convergence_test_that_failed(tmp_path, capsys):
    # at phi = 1 on this grid the in-loop residual meets tol, the certification
    # round's does not; each run that did not converge says so with both
    small = ["--set", "pool.phi=1", "--set", "grids.n_t=10", "--set", "grids.n_x=21",
             "--set", "grids.n_a=5", "--set", "grids.n_particles=500"]
    out = str(tmp_path / "out")
    assert run(["solve", "--out", out, *small]) == 3
    doc = json.load(open(f"{out}/equilibrium.json"))
    assert doc["residuals"][-1] <= 1e-3 < doc["post_residual"]
    assert capsys.readouterr().err == (
        f"run f did not converge after {doc['iterations']} iterations: in-loop residual "
        f"{doc['residuals'][-1]:.3g}, post-certification residual "
        f"{doc['post_residual']:.3g}, tol 0.001\n")
    assert run(["sandwich", "--out", out, *small]) == 3
    doc = json.load(open(f"{out}/sandwich.json"))
    *runs, last = capsys.readouterr().err.splitlines()
    assert [line.split()[:5] for line in runs] == [
        ["run", tag, "did", "not", "converge"] for tag in ("f1", "f2", "f")
        if not doc[f"converged_{tag}"]]
    assert runs and all(", tol 0.001" in line for line in runs)
    assert last == "sandwich is partial"


def test_cli_sweep_names_each_stalled_run(tmp_path, capsys):
    # at phi = 1 on this grid all three runs of the level stall; the sweep
    # names each with sandwich's line, prefixed by the level, and exits 3 as
    # sandwich does, with the same stderr and bytes on any worker count
    small = ["--set", "grids.n_t=10", "--set", "grids.n_x=21", "--set", "grids.n_a=5",
             "--set", "grids.n_particles=500"]
    assert run(["sandwich", "--out", str(tmp_path / "s"), "--set", "pool.phi=1", *small]) == 3
    *stalled, _ = capsys.readouterr().err.splitlines()
    assert len(stalled) == 3
    seen = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert run(["sweep", "--phis", "1,0.997", "--out", str(out), "--workers", workers,
                    *small]) == 3
        assert capsys.readouterr().err.splitlines() == [f"phi=1.0: {ln}" for ln in stalled]
        seen.append((out / "sweep.csv").read_bytes())
    assert seen[0] == seen[1]
    lines = seen[0].decode().splitlines()
    assert lines[2].endswith(",converged_f1,converged_f2,converged_f,error")
    assert lines[3].endswith(",false,false,false,") and lines[4].endswith(",true,true,true,")


def test_cli_sweep_worker_count_invisible(small_ini, tmp_path):
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    args = ["sweep", "--phis", "0.9,0.95", "--config", small_ini]
    assert run(args + ["--out", out1, "--workers", "1"]) == 0
    assert run(args + ["--out", out2, "--workers", "2"]) == 0
    a = open(f"{out1}/sweep.csv", "rb").read()
    assert a == open(f"{out2}/sweep.csv", "rb").read()
    lines = a.decode().splitlines()
    assert lines[0].startswith("# config_hash=") and lines[1] == "# seed=101"
    assert lines[2].startswith("phi,spread_factor,V_f1,")
    assert len(lines) == 5


def test_cli_workers_come_from_config(small_ini, tmp_path, monkeypatch):
    ini = tmp_path / "workers.ini"
    ini.write_text(SMALL_INI + "\n[run]\nworkers = 3\n")
    seen = []

    def fake_sweep(phis, **kwargs):
        seen.append(kwargs["workers"])
        return []

    monkeypatch.setattr(cli, "phi_sweep", fake_sweep)
    argv = ["sweep", "--phis", "0.9", "--config", str(ini), "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    assert run(argv + ["--workers", "1"]) == 0
    assert seen == [3, 1]


def test_cli_workers_below_one_refused(small_ini, capsys):
    for flags in (["--set", "run.workers=0"], ["--workers", "0"]):
        assert run(["sweep", "--phis", "0.9", "--config", small_ini, *flags]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "run.workers" in err


def test_cli_count_flags_below_one_refused(small_ini, tmp_path, capsys):
    # a 0 count is an override to validate, not an absent flag
    out = tmp_path / "o"
    for n, reps in (("0", "0"), ("-3", "-1")):
        assert run(["simulate", "--config", small_ini, "--n", n, "--reps", reps,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "sim.n_traders" in err and "sim.n_reps" in err
    for samples in ("0", "-5"):
        assert run(["check", "--config", small_ini, "--samples", samples,
                    "--out", str(out)]) == 1
        assert "usage error: --samples" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_bad_phis(small_ini, capsys):
    assert run(["sweep", "--phis", "0.9,zebra", "--config", small_ini]) == 1
    assert run(["sweep", "--phis", ",", "--config", small_ini]) == 1
    err = capsys.readouterr().err
    assert "--phis" in err


def test_cli_sweep_failed_level(small_ini, tmp_path, capsys):
    out = str(tmp_path / "fail")
    code = run(["sweep", "--phis", "2.0", "--config", small_ini, "--out", out,
                "--workers", "1"])
    assert code == 2
    assert "DomainError" in capsys.readouterr().err
    lines = open(f"{out}/sweep.csv").read().splitlines()
    assert lines[2].endswith(",error")
    assert "DomainError" in lines[3]


def test_cli_simulate(small_ini, tmp_path):
    out = str(tmp_path / "sim")
    assert run(["simulate", "--config", small_ini, "--n", "3", "--reps", "5",
                "--out", out]) == 0
    doc = json.load(open(f"{out}/sim_summary.json"))
    assert doc["n_traders"] == 3 and doc["n_reps"] == 5
    assert doc["price_mode"] == "aggregate"
    assert len(doc["mean_control"]) == 21
    assert doc["equilibrium"]["converged"] is True
    assert isinstance(doc["profit_mean"], float)


def test_cli_check(small_ini, tmp_path, capsys):
    out = str(tmp_path / "chk")
    assert run(["check", "--config", small_ini, "--samples", "2000",
                "--out", out]) == 0
    doc = json.load(open(f"{out}/check_report.json"))
    assert doc["all_pass"] is True
    props = {a["property"] for a in doc["audits"]}
    assert props == {"growth_bound", "ordering", "concavity", "girsanov_agreement"}
    assert all(a["pass"] for a in doc["audits"])
    text = capsys.readouterr().out
    assert text.count("pass") >= 4 and "FAIL" not in text


def test_cli_check_girsanov_audit_passes_on_a_narrow_box(tmp_path):
    # every path clamps on [-0.1, 0.1]: the reweighted paths clamp under the
    # same rule as the direct ones, so the audit passes with its usual band
    out = str(tmp_path / "narrow")
    with pytest.warns(UserWarning, match="state-grid edges"):
        code = run(["check", "--set", "grids.x_min=-0.1", "--set", "grids.x_max=0.1",
                    "--out", out])
    assert code == 0
    doc = json.load(open(f"{out}/check_report.json"))
    audit, = (a for a in doc["audits"] if a["property"] == "girsanov_agreement")
    assert audit["pass"] is True and audit["difference"] <= audit["band"]
    # the report says the audit ran on clamped paths
    assert audit["direct_exit_fraction"] > 0.2
    assert audit["reweighted_exit_fraction"] > 0.2


def test_cli_sandwich(small_ini, tmp_path):
    out = str(tmp_path / "sw")
    assert run(["sandwich", "--config", small_ini, "--out", out]) == 0
    doc = json.load(open(f"{out}/sandwich.json"))
    for key in ("V_f1", "V_f", "V_f2", "gap", "certificate", "config_hash"):
        assert key in doc
    assert doc["converged_f1"] and doc["converged_f2"]
    assert doc["certificate"]["epsilon"] == pytest.approx(
        doc["gap"] + 3.0 * doc["gap_se"], rel=1e-12)


def _python_m_cli(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "ammfg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_python_m_cli_runs_the_command(small_ini, tmp_path):
    missing = _python_m_cli()
    assert missing.returncode == 1 and "usage error" in missing.stderr
    out = tmp_path / "chk"
    done = _python_m_cli("check", "--config", small_ini, "--samples", "200", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "check_report.json").read_text())["all_pass"] is True
