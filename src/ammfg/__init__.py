"""Mean field trading equilibria on a constant-product market with fees.

The package solves for the equilibrium behaviour of a continuum of traders
who move inventory through an automated market maker that retains a fraction
1-phi of every input. The original reward couples each trader's cost to the
crowd through the pool state; two separable surrogate rewards bracket it, and
the gap between their equilibrium values certifies how far any trader can be
from optimal play (an epsilon-Nash bound). A finite-player simulator replays
the same policies with N traders sharing one pool to measure how fast the
mean field approximation takes over.
"""
from .errors import (AdmissibilityError, ConfigError, DomainError, NumericalError,
                     ReserveDepletionError, UsageError)
from .pool import (PoolParams, PoolState, bid_ask_mid, buy_swap, execute_swap,
                   price_after_aggregate, spot_price, spread_factor)
from .grids import ControlBounds, Grids, InitialLaw, MeanControlPath, make_path, zero_path
from .rewards import (CostSpec, RewardKind, Variant, bound_constant, check_cost_growth,
                      check_growth_bound, quadratic_costs, reward, terminal_reward)
from .solver import (Policy, ValueReport, evaluate, girsanov_evaluate, propagate,
                     solve_hjb)
from .fixed_point import EquilibriumResult, FixedPointConfig, solve_mfg
from .certify import (SWEEP_COLUMNS, EpsilonNashCertificate, SandwichReport,
                      epsilon_nash_certificate, phi_sweep, sandwich_report)
from .nplayer import (PRICE_MODES, DeviationGain, SimConfig, SimResult, deviation_gain,
                      impact_aware_reward, simulate)
from .streams import substream

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "ConfigError", "DomainError", "NumericalError",
    "ReserveDepletionError", "UsageError",
    "PoolParams", "PoolState", "bid_ask_mid", "buy_swap", "execute_swap",
    "price_after_aggregate", "spot_price", "spread_factor",
    "ControlBounds", "Grids", "InitialLaw", "MeanControlPath", "make_path", "zero_path",
    "CostSpec", "RewardKind", "Variant", "bound_constant", "check_cost_growth",
    "check_growth_bound", "quadratic_costs", "reward", "terminal_reward",
    "Policy", "ValueReport", "evaluate", "girsanov_evaluate", "propagate", "solve_hjb",
    "EquilibriumResult", "FixedPointConfig", "solve_mfg",
    "SWEEP_COLUMNS", "EpsilonNashCertificate", "SandwichReport",
    "epsilon_nash_certificate", "phi_sweep", "sandwich_report",
    "PRICE_MODES", "DeviationGain", "SimConfig", "SimResult", "deviation_gain",
    "impact_aware_reward", "simulate",
    "substream",
    "__version__",
]
