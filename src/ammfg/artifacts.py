"""Output files: CSV/JSON artifacts stamped with the run's config hash and seed.

CSV files open with two comment lines (``# config_hash=...`` / ``# seed=...``)
followed by a header row; JSON documents carry the same two keys at top level.
Readers that reject comment lines can strip the leading ``#`` rows.
"""
from __future__ import annotations

import csv
import json
import os
from typing import Iterable

import numpy as np

from .certify import SWEEP_COLUMNS
from .fixed_point import EquilibriumResult
from .grids import MeanControlPath
from .solver import Policy


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _open_csv(path: str, cfg_hash: str, seed: int):
    fh = open(path, "w", newline="")
    fh.write(f"# config_hash={cfg_hash}\n# seed={seed}\n")
    return fh


def write_json(doc: dict, out_dir: str, name: str, cfg_hash: str, seed: int) -> str:
    """Write ``doc`` as out_dir/name with the stamp keys; returns the file path."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {"config_hash": cfg_hash, "seed": int(seed)}
    payload.update(_jsonable(doc))
    p = os.path.join(out_dir, name)
    with open(p, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return p


def write_path_csv(path_obj: MeanControlPath, path: str, cfg_hash: str, seed: int) -> None:
    with _open_csv(path, cfg_hash, seed) as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "m", "C", "R"])
        for t, m, c, r in path_obj.rows():
            writer.writerow([repr(float(t)), repr(float(m)), repr(float(c)), repr(float(r))])


def write_policy_csv(policy: Policy, path: str, cfg_hash: str, seed: int) -> None:
    """Long format: one row per (time node, state node)."""
    with _open_csv(path, cfg_hash, seed) as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "a_star", "V"])
        for k, t in enumerate(policy.t_nodes[:-1]):
            for j, x in enumerate(policy.x_nodes):
                v = policy.values[k, j] if policy.values is not None else float("nan")
                writer.writerow([repr(float(t)), repr(float(x)),
                                 repr(float(policy.controls[k, j])), repr(float(v))])


def equilibrium_summary(result: EquilibriumResult) -> dict:
    return {
        "kind": result.kind.tag,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "residuals": [float(r) for r in result.residuals],
        "post_residual": float(result.post_residual),
        "value": float(result.value.value),
        "value_stderr": float(result.value.stderr),
        "n_paths": int(result.value.n_paths),
        "bias_budget": float(result.value.bias_budget),
        "exit_fraction": float(result.exit_fraction),
    }


def write_equilibrium(result: EquilibriumResult, out_dir: str, cfg_hash: str,
                      seed: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    path_csv = os.path.join(out_dir, "equilibrium.csv")
    policy_csv = os.path.join(out_dir, "policy.csv")
    write_path_csv(result.path, path_csv, cfg_hash, seed)
    write_policy_csv(result.policy, policy_csv, cfg_hash, seed)
    return [path_csv, policy_csv, write_json(equilibrium_summary(result), out_dir,
                                             "equilibrium.json", cfg_hash, seed)]


def write_sweep(rows: Iterable[dict], out_dir: str, cfg_hash: str, seed: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    rows = list(rows)
    columns = list(SWEEP_COLUMNS)
    if any("error" in r for r in rows):
        columns.append("error")
    p = os.path.join(out_dir, "sweep.csv")
    with _open_csv(p, cfg_hash, seed) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            out = []
            for col in columns:
                val = row.get(col, "")
                if isinstance(val, bool):
                    out.append(str(val).lower())
                elif isinstance(val, float):
                    out.append(repr(val))
                else:
                    out.append(val)
            writer.writerow(out)
    return p
