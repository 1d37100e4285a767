"""Benchmark entry point.

    python3 bench/run.py --workload {sandwich,sweep,deviation} --seed N \
        --seconds S --trace {0,1}

Run from the repository root: the package is imported from ./src. The run
times the workload's set-up SETUPS times, each after a package import in a
fresh interpreter. It then runs one operation at a time until the next one
would end after ``--seconds``, with at least MIN_OPS operations, and times
IMPORTS_PER_OP more imports after each operation. The host's speed drifts
over tens of seconds, and the imports, spread over the whole run, follow the
run's mean speed. ``setup_s`` is the median import time plus the median
set-up time. Every operation's outputs are checked against
the goldens in bench/goldens.json. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

A traced run alternates untraced and traced operations: per-layer numbers
come from the traced ones, and ``trace.overhead_s`` is the difference of the
two medians.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from checks import Z_BAND, check, load_goldens, model_seed
from tracer import Tracer

SETUPS = 3
IMPORTS_PER_OP = 3
MIN_OPS = 2
WORKDIR = ".bench_run"

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "pass_frac": "frac", "golden_margin": "frac",
}

# per-layer metric -> unit; computed per traced operation, averaged over them
PER_LAYER = {
    "fixed_point.solve_mfg.calls": "count",
    "fixed_point.iterations": "count",
    "fixed_point.converged_frac": "frac",
    "fixed_point.solve_mfg.self_s": "s",
    "solver.solve_hjb.calls": "count",
    "solver.solve_hjb.s": "s",
    "solver.solve_hjb.share": "frac",
    "solver.solve_hjb.stencil_points_per_s": "1/s",
    "solver.propagate.calls": "count",
    "solver.propagate.s": "s",
    "solver.propagate.self_s": "s",
    "solver.propagate.share": "frac",
    "solver.propagate.particle_steps_per_s": "1/s",
    "solver.evaluate.calls": "count",
    "solver.evaluate.s": "s",
    "solver.control_at.calls": "count",
    "solver.control_at.s": "s",
    "solver.control_at.share": "frac",
    "rewards.reward.calls": "count",
    "rewards.reward.s": "s",
    "streams.substream.calls": "count",
    "streams.substream.s": "s",
    "certify.sandwich_report.calls": "count",
    "certify.sandwich_report.self_s": "s",
    "certify.phi_sweep.cpu_per_wall": "ratio",
    "nplayer.simulate.calls": "count",
    "nplayer.simulate.s": "s",
    "nplayer.simulate.self_s": "s",
    "nplayer.simulate.share": "frac",
    "nplayer.simulate.trader_steps_per_s": "1/s",
    "nplayer.deviation_gain.s": "s",
    "pool.calls": "count",
    "artifacts.write_s": "s",
    "artifacts.bytes": "B",
    "config.validate.s": "s",
    "trace.overhead_s": "s",
}


# -- trace observers: work counts taken where the work happens -----------------

def _on_solve_mfg(tr, args, result):
    tr.counts["fixed_point.iterations"] += result.iterations
    tr.counts["fixed_point.converged"] += bool(result.converged)


def _on_solve_hjb(tr, args, result):
    g = args["grids"]
    tr.counts["solver.solve_hjb.stencil_points"] += g.n_t * g.n_x * g.n_a * g.n_quad


def _on_propagate(tr, args, result):
    g = args["grids"]
    tr.counts["solver.propagate.particle_steps"] += g.n_t * g.n_particles


def _on_simulate(tr, args, result):
    reps, traders = result.profits.shape
    tr.counts["nplayer.simulate.trader_steps"] += reps * traders * args["grids"].n_t


def _on_artifact(tr, args, result):
    for p in (result if isinstance(result, list) else [result, args.get("path")]):
        if isinstance(p, str):
            tr.paths.add(p)


OBSERVERS = {
    "fixed_point.solve_mfg": _on_solve_mfg,
    "solver.solve_hjb": _on_solve_hjb,
    "solver.propagate": _on_propagate,
    "nplayer.simulate": _on_simulate,
    "artifacts": _on_artifact,
}


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation of ``wall`` seconds."""
    summary = tracer.summary()
    counts = tracer.counts

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    for name in ("fixed_point.solve_mfg", "solver.solve_hjb", "solver.propagate",
                 "solver.evaluate", "solver.control_at", "rewards.reward",
                 "streams.substream", "certify.sandwich_report", "nplayer.simulate"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "busy_s")
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.share"] = ratio(get(name, "busy_s"), wall)
    m["fixed_point.iterations"] = counts["fixed_point.iterations"]
    m["fixed_point.converged_frac"] = ratio(counts["fixed_point.converged"],
                                            get("fixed_point.solve_mfg", "calls"))
    m["solver.solve_hjb.stencil_points_per_s"] = ratio(
        counts["solver.solve_hjb.stencil_points"], get("solver.solve_hjb", "total_s"))
    m["solver.propagate.particle_steps_per_s"] = ratio(
        counts["solver.propagate.particle_steps"], get("solver.propagate", "total_s"))
    m["nplayer.simulate.trader_steps_per_s"] = ratio(
        counts["nplayer.simulate.trader_steps"], get("nplayer.simulate", "total_s"))
    m["certify.phi_sweep.cpu_per_wall"] = ratio(get("certify.phi_sweep", "cpu_s"),
                                                get("certify.phi_sweep", "total_s"))
    m["nplayer.deviation_gain.s"] = get("nplayer.deviation_gain", "busy_s")
    m["pool.calls"] = get("pool", "calls")
    m["artifacts.write_s"] = get("artifacts", "busy_s")
    m["artifacts.bytes"] = float(tracer.bytes_written())
    m["config.validate.s"] = get("config.validate", "busy_s")
    return {k: v for k, v in m.items() if k in PER_LAYER}


# -- measurement ---------------------------------------------------------------

def _import_seconds(src: str) -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ammfg.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class OpRecord:
    wall: float
    cpu: float
    problems: list[str]
    drift: float
    identical: bool
    traced: bool
    layers: dict[str, float] | None = None


def run_op(workload, inputs, golden, traced: bool) -> OpRecord:
    gc.collect()
    tracer = Tracer(observers=OBSERVERS) if traced else None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is not None:
            with tracer:
                out = workload.op(inputs)
        else:
            out = workload.op(inputs)
    except Exception as exc:   # a failed operation is counted, the run goes on
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        traceback.print_exc(file=sys.stderr)
        return OpRecord(wall, cpu, [f"raised {type(exc).__name__}: {exc}"], math.inf,
                        False, traced)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    problems, drift = check(out, golden)
    identical = out.sha256 == golden["sha256"]
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, wall)
        want = golden.get("iterations")
        if want is not None and layers["fixed_point.iterations"] != want:
            print(f"note: {layers['fixed_point.iterations']:g} Picard iterations "
                  f"(golden {want:g})", file=sys.stderr)
    for p in problems:
        print(f"golden check failed: {p}", file=sys.stderr)
    return OpRecord(wall, cpu, problems, drift, identical, traced, layers)


def measure(workload, inputs, golden, seconds: float, trace: bool,
            after_op=lambda: None) -> list[OpRecord]:
    """Run operations for ``seconds``; ``after_op()`` runs after each of them."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while True:
        records.append(run_op(workload, inputs, golden, traced=trace and len(records) % 2 == 1))
        after_op()
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in records)
        if len(records) >= MIN_OPS and elapsed + typical > seconds:
            return records


def end_to_end(setup_s, records) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics for the JSON line, the raw fail_frac and result_drift_se)."""
    failed = sum(1 for r in records if r.problems)
    drift = max(r.drift for r in records)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median([r.wall for r in records]),
        "cpu_s": statistics.median([r.cpu for r in records]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / len(records),
        # share of the golden band the worst output leaves unused: 1 when
        # every value is bitwise equal, <= 0 once any value leaves its band
        "golden_margin": 1.0 - min(drift, 1e6) / Z_BAND,
    }
    return metrics, {"fail_frac": failed / len(records), "result_drift_se": drift}


def per_layer(records) -> dict[str, float]:
    """Per-layer metrics averaged over the traced operations that succeeded."""
    traced = [r for r in records if r.layers is not None]
    if not traced:        # every traced operation failed; the run reports failure
        return dict.fromkeys(PER_LAYER, 0.0)
    plain = [r for r in records if not r.traced]
    m = {name: statistics.fmean(r.layers[name] for r in traced)
         for name in PER_LAYER if name != "trace.overhead_s"}
    m["trace.overhead_s"] = (statistics.median([r.wall for r in traced])
                             - statistics.median([r.wall for r in plain]))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sandwich", "sweep", "deviation"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ammfg", "__init__.py")):
        print(f"bench: no package sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import ammfg
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(ammfg.__file__)) != os.path.join(src, "ammfg"):
        print(f"bench: imported ammfg from {ammfg.__file__}, not from {src}", file=sys.stderr)
        return 2
    goldens = load_goldens()
    seed = model_seed(args.seed, goldens)
    golden = goldens["seeds"][str(seed)][args.workload]

    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, WORKDIR))
    try:
        workload = WORKLOADS[args.workload](workdir)
        imports, setups = [], []
        for _ in range(SETUPS):
            imports.append(_import_seconds(src))
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            setups.append(time.perf_counter() - t0)

        def time_imports():
            imports.extend(_import_seconds(src) for _ in range(IMPORTS_PER_OP))

        records = measure(workload, inputs, golden, args.seconds, bool(args.trace),
                          after_op=time_imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(os.path.join(root, WORKDIR)):
            os.rmdir(os.path.join(root, WORKDIR))

    failed = sum(1 for r in records if r.problems)
    print(f"workload {args.workload}: seed {args.seed} -> model seed {seed}; "
          f"{len(records)} ops, {failed} failed; bytes identical to golden: "
          f"{all(r.identical for r in records)}")
    print("  op walls (s, * traced): " + " ".join(
        f"{r.wall:.3f}{'*' if r.traced else ''}" for r in records))
    if args.trace:
        metrics = shown = per_layer(records)
        units = PER_LAYER
    else:
        setup_s = statistics.median(imports) + statistics.median(setups)
        metrics, raw = end_to_end(setup_s, records)
        units = END_TO_END
        shown = {**metrics, **raw}
    for name, value in shown.items():
        print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
