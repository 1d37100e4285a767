"""Constant-product pool mechanics with a retained-input fee.

A pool holds reserves (X, Y) of a risky and a numeraire token with invariant
k = X*Y. A swap submitting ``delta_in`` units of the risky token is priced in
two stages: the output leg is computed against the fee-discounted input
``phi*delta_in`` (phi = 1 - tau, tau the fee rate), then the full input is
added to the reserve. With phi < 1 the invariant therefore grows on every
positive swap; the fee is the retained slice of the input.

Quoted prices around the spot price P = Y/X:

    bid = phi*P     ask = P/phi     mid = (1 + phi^2)/(2*phi) * P

``spread_factor(phi)`` = mid/P - 1 = (1-phi)^2/(2*phi) is the half-spread the
mid-price quote carries over spot; it vanishes quadratically as phi -> 1.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReserveDepletionError

#: Lowest fee retention the model accepts; phi below this deepens the
#: denominators beyond anything the bound machinery covers.
PHI_FLOOR = 1e-6


def _phi_problems(phi) -> list[str]:
    phi = np.asarray(phi, dtype=float)
    if np.all((phi >= PHI_FLOOR) & (phi <= 1.0)):
        return []
    return [f"phi must lie in [{PHI_FLOOR}, 1], got {phi}"]


def _check_phi(phi) -> None:
    problems = _phi_problems(phi)
    if problems:
        raise DomainError(problems)


@dataclass(frozen=True)
class PoolParams:
    """Static pool and market constants.

    Attributes
    ----------
    x0 : initial risky-token reserve, > 0.
    k0 : initial invariant, > 0 (so the numeraire reserve is k0/x0).
    phi : fee retention, 1 - tau, in (0, 1].
    sigma0 : additive price-noise volatility (N-player simulation only).
    sigma : trader inventory volatility, > 0 for the stochastic solvers.
    """

    x0: float = 100.0
    k0: float = 1e6
    phi: float = 0.997
    sigma0: float = 0.0
    sigma: float = 0.5

    def __post_init__(self):
        problems = [f"{name} must be > 0, got {v}"
                    for name, v in (("x0", self.x0), ("k0", self.k0)) if v <= 0]
        problems += _phi_problems(self.phi)
        problems += [f"{name} must be >= 0, got {v}"
                     for name, v in (("sigma0", self.sigma0), ("sigma", self.sigma)) if v < 0]
        if problems:
            raise DomainError(problems)

    @property
    def tau(self) -> float:
        """Fee rate 1 - phi."""
        return 1.0 - self.phi

    @property
    def y0(self) -> float:
        return self.k0 / self.x0

    @functools.cached_property
    def spread(self) -> float:
        """spread_factor(phi), computed once: phi was checked when the params were built."""
        return spread_factor(self.phi)

    def initial_state(self) -> "PoolState":
        return PoolState(self.x0, self.k0 / self.x0)


@dataclass(frozen=True)
class PoolState:
    """Reserves (x, y), scalars or a batch of pools; k is derived, never stored."""

    x: float
    y: float

    def __post_init__(self):
        if np.any(self.x <= 0) or np.any(self.y <= 0):
            raise ReserveDepletionError(f"reserves must stay positive, got x={self.x}, y={self.y}")

    @property
    def k(self) -> float:
        return self.x * self.y


@dataclass(frozen=True)
class SwapResult:
    delta_out: float
    new_state: PoolState
    fee_paid: float


def spot_price(state: PoolState) -> float:
    """Marginal price y/x of the risky token in numeraire units."""
    return state.y / state.x


def bid_ask_mid(price: float, phi: float) -> tuple[float, float, float]:
    """Quotes around a spot price: (phi*P, P/phi, (1+phi^2)/(2*phi)*P).

    The mid is the price at which the N-player simulator's traders fill.
    Ordering bid <= P <= mid <= ask holds for all phi in (0, 1], with
    equalities exactly at phi = 1. Accepts array ``price``.
    """
    _check_phi(phi)
    return phi * price, price / phi, (1.0 + phi**2) / (2.0 * phi) * price


def spread_factor(phi):
    """Mid-over-spot markup (1+phi^2)/(2*phi) - 1. Accepts arrays.

    Algebraically equal to (1-phi)^2/(2*phi): strictly positive below
    phi = 1, zero at phi = 1, strictly decreasing on (0, 1].
    """
    _check_phi(phi)
    phi = np.asarray(phi, dtype=float)
    out = (1.0 - phi) ** 2 / (2.0 * phi)
    return float(out) if out.ndim == 0 else out


def execute_swap(state: PoolState, delta_in: float, phi: float) -> SwapResult:
    """Two-stage swap of ``delta_in`` risky tokens into the pool.

    Stage one prices the output against the discounted input:
    delta_out = y - k/(x + phi*delta_in). Stage two adds the whole input to
    the reserve, so the post-swap invariant is (x+delta_in)*k/(x+phi*delta_in),
    strictly above k when phi < 1 and delta_in > 0.

    Negative delta_in (net outflow of the risky token, the direction induced
    by a buying crowd) is accepted whenever both x + phi*delta_in and
    x + delta_in stay positive; the same formula then *shrinks* the invariant,
    which is the aggregate-flow convention, not a fee-charging venue. The
    N-player simulator's sequential venue charges the fee on the input side:
    this function on inflows, :func:`buy_swap` on outflows.
    """
    _check_phi(phi)
    if np.any(state.x + phi * delta_in <= 0) or np.any(state.x + delta_in <= 0):
        raise ReserveDepletionError(
            f"swap of {delta_in} would deplete reserve x={state.x} (phi={phi})"
        )
    k = state.k
    delta_out = state.y - k / (state.x + phi * delta_in)
    new_state = PoolState(state.x + delta_in, state.y - delta_out)
    return SwapResult(delta_out=delta_out, new_state=new_state, fee_paid=(1.0 - phi) * delta_in)


def buy_swap(state: PoolState, amount_out: float, phi: float) -> SwapResult:
    """Withdraw ``amount_out`` risky tokens, fee charged on the numeraire input.

    Mirror of :func:`execute_swap` for the opposite direction on a venue that
    always charges the fee on the input side: the numeraire payment solves
    (x - amount_out)*(y + phi*pay) = k, and the full payment is added to the
    reserve. The invariant never decreases. ``delta_out`` is the risky amount
    withdrawn; ``fee_paid`` is in numeraire units.
    """
    _check_phi(phi)
    if np.any(amount_out < 0):
        raise DomainError("amount_out must be >= 0; use execute_swap for inflows")
    if np.any(state.x - amount_out <= 0):
        raise ReserveDepletionError(
            f"withdrawal of {amount_out} would deplete reserve x={state.x}"
        )
    k = state.k
    pay = (k / (state.x - amount_out) - state.y) / phi
    new_state = PoolState(state.x - amount_out, state.y + pay)
    return SwapResult(delta_out=amount_out, new_state=new_state, fee_paid=(1.0 - phi) * pay)


def price_after_aggregate(params: PoolParams, delta: float):
    """Spot price after one aggregate trade of size ``delta`` from (x0, k0).

    k0 / ((x0 + phi*delta) * (x0 + delta)); identical to executing the swap
    and reading the new spot price. Accepts array ``delta``.
    """
    delta = np.asarray(delta, dtype=float)
    if np.any(params.x0 + params.phi * delta <= 0) or np.any(params.x0 + delta <= 0):
        raise ReserveDepletionError("aggregate trade depletes the pool")
    out = params.k0 / ((params.x0 + params.phi * delta) * (params.x0 + delta))
    return float(out) if out.ndim == 0 else out
