"""Golden records and the check of one operation's outputs against them.

bench/goldens.json holds, per model seed and workload, the outputs of the
seed commit: ``values`` (name -> [golden, standard error]), ``exact``
(name -> value) and ``sha256`` (artifact -> hash), plus the total Picard
iteration count of one operation where the workload solves equilibria.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

Z_BAND = 4.0          # a value further than this many standard errors fails the op
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


class OpFailed(Exception):
    """The operation ran but did not produce a usable result."""


@dataclass
class Outputs:
    values: dict[str, tuple[float, float]] = field(default_factory=dict)
    exact: dict[str, object] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)

    def golden(self, iterations: float | None = None) -> dict:
        doc = {"values": {k: list(v) for k, v in self.values.items()},
               "exact": dict(self.exact), "sha256": dict(self.sha256)}
        if iterations is not None:
            doc["iterations"] = iterations
        return doc


def check(out: Outputs, golden: dict) -> tuple[list[str], float]:
    """(problems, drift) of one operation against its golden record.

    drift is the largest |value - golden| / golden standard error over the
    checked values; it is 0.0 exactly when every value is bitwise equal.
    """
    problems: list[str] = []
    drift = 0.0
    for name, (want, scale) in golden["values"].items():
        if name not in out.values:
            problems.append(f"{name}: missing")
            drift = math.inf
            continue
        got = out.values[name][0]
        if got == want:
            continue
        d = abs(got - want) / scale if scale > 0 else math.inf
        d = math.inf if math.isnan(d) else d
        drift = max(drift, d)
        if d > Z_BAND:
            problems.append(f"{name}: {got!r} is {d:.3g} se from golden {want!r}")
    for name, want in golden["exact"].items():
        got = out.exact.get(name, "<missing>")
        if got != want:
            problems.append(f"{name}: {got!r} != golden {want!r}")
    return problems, drift


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def model_seed(seed: int, goldens: dict) -> int:
    """The model seed a benchmark seed selects; the model seed always has goldens.

    A seed with goldens of its own (the desk seed, the held-out seed) is used
    as is; any other seed picks the panel entry at its residue.
    """
    if str(seed) in goldens["seeds"]:
        return seed
    panel = goldens["panel"]
    return panel[seed % len(panel)]
