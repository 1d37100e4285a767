"""Write bench/goldens.json from the current sources.

    python3 bench/make_goldens.py

Run from the repository root, on the commit whose outputs are the reference.
For every seed of the panel and the held-out seed it runs one operation of
each workload and stores the checked outputs. The sweep golden comes from a
``--workers 1`` run, so the benchmark's ``--workers 2`` run also checks that
the worker count leaves the artifact unchanged.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from checks import GOLDENS                     # noqa: E402
from run import OBSERVERS                      # noqa: E402
from tracer import Tracer                      # noqa: E402
from workloads import Deviation, Sandwich, Sweep  # noqa: E402

DESK_SEED = 20240814
PANEL = [DESK_SEED, 1, 2, 3, 4, 5, 6, 7]
HELD_OUT = 271828


def main() -> int:
    doc = {
        "note": "outputs of the seed commit; see bench/README.md",
        "panel": PANEL,
        "held_out": HELD_OUT,
        "seeds": {},
    }
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        for seed in PANEL + [HELD_OUT]:
            record = {}
            for wl in (Sandwich(workdir), Sweep(workdir, workers=1), Deviation(workdir)):
                inputs = wl.setup(seed)
                with Tracer(observers=OBSERVERS) as tr:
                    out = wl.op(inputs)
                iterations = tr.counts["fixed_point.iterations"]
                record[wl.name] = out.golden(iterations if iterations else None)
                print(f"seed {seed} {wl.name}: {len(out.values)} values", flush=True)
            doc["seeds"][str(seed)] = record
    with open(GOLDENS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
