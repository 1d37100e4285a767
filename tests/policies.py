"""Hand-built policies for tests that need a known control, not a solved one."""
import numpy as np

from ammfg import ControlBounds, Grids, Policy, UsageError


def constant_policy(level: float, grids: Grids, bounds: ControlBounds) -> Policy:
    """Policy pinned at one control value everywhere."""
    if not bounds.a_min <= level <= bounds.a_max:
        raise UsageError(f"constant control {level} outside [{bounds.a_min}, {bounds.a_max}]")
    return Policy(t_nodes=grids.t_nodes(), x_nodes=grids.x_nodes(),
                  controls=np.full((grids.n_t, grids.n_x), float(level)))
