"""Tests of the benchmark harness itself (not of the package).

    python -m pytest -q bench

The workloads run here on a small lattice so the file takes seconds.
"""
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ammfg  # noqa: E402
from ammfg import certify, cli, solver  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer, public_functions  # noqa: E402
from workloads import WORKLOADS, Deviation  # noqa: E402

SMALL = ("grids.n_t=10", "grids.n_x=31", "grids.n_a=6", "grids.n_particles=500")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name, workdir):
    if name == "deviation":
        return Deviation(str(workdir), SMALL, reps=40)
    return WORKLOADS[name](str(workdir), SMALL)


def golden_of(workload, inputs):
    return workload.op(inputs).golden()


def test_identical_outputs_pass_with_zero_drift(tmp_path):
    wl = small("sandwich", tmp_path)
    inputs = wl.setup(7)
    golden = golden_of(wl, inputs)
    rec = run.run_op(wl, inputs, golden, traced=False)
    assert rec.problems == [] and rec.drift == 0.0 and rec.identical


def test_perturbed_golden_value_fails_the_op(tmp_path):
    wl = small("sandwich", tmp_path)
    inputs = wl.setup(7)
    golden = golden_of(wl, inputs)
    value, se = golden["values"]["V_f"]
    golden["values"]["V_f"] = [value + 10 * se, se]
    rec = run.run_op(wl, inputs, golden, traced=False)
    assert any(p.startswith("V_f:") for p in rec.problems)
    assert rec.drift == pytest.approx(10.0)
    metrics, raw = run.end_to_end(1.0, [rec])
    assert raw["fail_frac"] == 1.0 and metrics["pass_frac"] == 0.0
    assert metrics["golden_margin"] < 0.0


@pytest.mark.parametrize("recompute_gaps", [False, True])
def test_swapped_sandwich_bracket_fails_the_op(recompute_gaps, tmp_path, monkeypatch):
    wl = small("sandwich", tmp_path)
    inputs = wl.setup(7)
    golden = golden_of(wl, inputs)
    real = cli.sandwich_report

    def swapped(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep = dataclasses.replace(rep, v_f1=rep.v_f2, v_f2=rep.v_f1)
        if recompute_gaps:
            rep = dataclasses.replace(rep, gap=rep.v_f2.value - rep.v_f1.value,
                                      gap_upper=rep.v_f2.value - rep.v_f.value,
                                      gap_lower=rep.v_f.value - rep.v_f1.value)
        return rep

    monkeypatch.setattr(cli, "sandwich_report", swapped)
    rec = run.run_op(wl, inputs, golden, traced=False)
    assert any(p.startswith("gap:") for p in rec.problems), rec.problems
    assert rec.drift > 10 * checks.Z_BAND


def test_epsilon_without_its_stderr_term_fails_the_op(tmp_path, monkeypatch):
    wl = small("sandwich", tmp_path)
    inputs = wl.setup(7)
    golden = golden_of(wl, inputs)
    real = cli.epsilon_nash_certificate

    def gap_only(report, *args, **kwargs):
        return dataclasses.replace(real(report, *args, **kwargs), epsilon=report.gap)

    monkeypatch.setattr(cli, "epsilon_nash_certificate", gap_only)
    rec = run.run_op(wl, inputs, golden, traced=False)
    assert any(p.startswith("epsilon:") for p in rec.problems), rec.problems
    assert any(p.startswith("epsilon.is_gap_plus_3se:") for p in rec.problems)


def test_value_inside_band_passes_but_shows_drift():
    out = checks.Outputs(values={"v": (1.0, 0.5)})
    problems, drift = checks.check(out, {"values": {"v": [1.5, 0.5]}, "exact": {}})
    assert problems == [] and drift == pytest.approx(1.0)


def test_changed_exact_output_fails_the_op():
    out = checks.Outputs(exact={"converged_f": False})
    problems, _ = checks.check(out, {"values": {}, "exact": {"converged_f": True}})
    assert problems


def test_raising_op_counts_as_failed(tmp_path):
    wl = small("deviation", tmp_path)
    inputs = wl.setup(7)
    golden = golden_of(wl, inputs)
    inputs["eq"] = None
    rec = run.run_op(wl, inputs, golden, traced=False)
    assert rec.problems and math.isinf(rec.drift)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*e2e, *layers, *WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    wl = small(name, tmp_path)
    inputs = wl.setup(7)
    golden = golden_of(wl, inputs)
    records = run.measure(wl, inputs, golden, seconds=0.0, trace=True)
    assert [r.traced for r in records] == [False, True]
    assert all(not r.problems for r in records)
    metrics = run.per_layer(records)
    assert set(metrics) == set(run.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())


def _bindings():
    """Every (owner, attribute) -> object that binds a traced function."""
    targets = {}
    for layer in LAYERS:
        targets.update(public_functions(sys.modules[f"ammfg.{layer}"]))
    originals = {id(fn) for _, _, fn in targets.values()}
    sites = {(owner, attr): vars(owner)[attr] for owner, attr, _ in targets.values()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ammfg" or mod_name.startswith("ammfg."):
            for attr, obj in vars(module).items():
                if id(obj) in originals:
                    sites[(module, attr)] = obj
    return sites


def test_tracer_wraps_every_binding_and_restores_originals(tmp_path):
    before = _bindings()
    original_hjb = solver.solve_hjb
    original_control_at = solver.Policy.control_at
    assert (certify, "solve_hjb") in before and (ammfg, "solve_hjb") in before
    wl = small("sandwich", tmp_path)
    inputs = wl.setup(7)
    with Tracer(observers=run.OBSERVERS) as tr:
        assert solver.solve_hjb is not original_hjb
        assert certify.solve_hjb is solver.solve_hjb
        assert solver.Policy.control_at is not original_control_at
        wl.op(inputs)
    assert {s.name for s in tr.spans} >= {"solver.solve_hjb", "certify.sandwich_report",
                                         "solver.control_at"}
    after = {(owner, attr): vars(owner)[attr] for owner, attr in before}
    assert all(after[site] is obj for site, obj in before.items())
    assert solver.solve_hjb is original_hjb
    assert solver.Policy.control_at is original_control_at


def test_self_time_excludes_child_spans(tmp_path):
    wl = small("sandwich", tmp_path)
    inputs = wl.setup(7)
    with Tracer() as tr:
        wl.op(inputs)
    by_id = {s.id: s for s in tr.spans}
    child_time = {}
    for s in tr.spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    for s in tr.spans:
        assert s.self_s == pytest.approx(s.end - s.start - child_time.get(s.id, 0.0))
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


def test_seed_selection_is_deterministic_and_has_goldens():
    goldens = checks.load_goldens()
    desk, held_out = goldens["panel"][0], goldens["held_out"]
    assert checks.model_seed(desk, goldens) == desk == 20240814
    assert checks.model_seed(held_out, goldens) == held_out
    assert held_out not in goldens["panel"]
    for seed in range(40):
        picked = checks.model_seed(seed, goldens)
        assert picked == checks.model_seed(seed, goldens)
        assert set(goldens["seeds"][str(picked)]) == set(WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sandwich", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_outputs_golden_round_trips_through_json():
    out = checks.Outputs(values={"v": (0.1, 0.01)}, exact={"c": True}, sha256={"f": "ab"})
    golden = json.loads(json.dumps(out.golden(iterations=3)))
    assert checks.check(out, golden) == ([], 0.0)
    assert golden["iterations"] == 3
