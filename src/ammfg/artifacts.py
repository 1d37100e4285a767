"""Output files: CSV/JSON artifacts stamped with the run's config hash and seed.

CSV files open with two comment lines (``# config_hash=...`` / ``# seed=...``)
followed by a header row; JSON documents carry the same two keys at top level.
Readers that reject comment lines can strip the leading ``#`` rows.

``write_csv`` is the one CSV writer. Its cell rule: floats (numpy's too) are
written as ``repr(float(v))``, so they read back bit for bit and NaN reads
``nan``; bools (numpy's too) as ``true``/``false``; strings as they are.
``write_json`` writes every non-finite number as ``null``.
"""
from __future__ import annotations

import csv
import json
import os
from typing import Iterable, Sequence

import numpy as np

from .fixed_point import EquilibriumResult


def _jsonable(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return _jsonable(value.tolist())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


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


def write_csv(columns: Sequence[str], rows: Iterable[Sequence], out_dir: str, name: str,
              cfg_hash: str, seed: int) -> str:
    """Write ``rows`` (cells in ``columns`` order) as out_dir/name; returns the file path."""
    os.makedirs(out_dir, exist_ok=True)
    p = os.path.join(out_dir, name)
    with open(p, "w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n# seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)
    return p


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
    """The mean path, the policy (one row per time node and state node) and the summary."""
    pol = result.policy
    policy_rows = ((t, x, pol.controls[k, j], pol.values[k, j])
                   for k, t in enumerate(pol.t_nodes[:-1]) for j, x in enumerate(pol.x_nodes))
    return [write_csv(["t", "m", "C", "R"], result.path.rows(), out_dir, "equilibrium.csv",
                      cfg_hash, seed),
            write_csv(["t", "x", "a_star", "V"], policy_rows, out_dir, "policy.csv",
                      cfg_hash, seed),
            write_json(equilibrium_summary(result), out_dir, "equilibrium.json", cfg_hash,
                       seed)]
