"""Closed-form solution and regime classification for two species.

For the coupling matrix ``[[1-alpha, beta], [alpha, 1-beta]]`` the full
solution from start ``(a, 1-a)`` decomposes over the two eigenmodes:

    phi(t) = (beta, alpha) / (alpha + beta)
           + (1 - alpha - beta)**t * (a - beta/(alpha+beta)) * (1, -1)

The first term is the stationary mix, the second the transient, and the
signs of ``alpha`` and ``beta`` split the behaviour into three regimes:
both nonnegative (the transient decays and the species coexist), opposite
signs (the species with the negative row entry is driven to zero
monotonically), and both nonpositive (the transient grows, so whichever
side of the stationary mix the start lies on takes everything).

``alpha + beta == 0`` with ``alpha != 0`` makes the matrix
non-diagonalizable; the closed form refuses and the step engine is the
only source of truth there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import ZERO_TOL, _check_finite, _check_integer
from .errors import NumericalError, ValidationError


class Regime(enum.Enum):
    COEXISTENCE = "Coexistence"
    MONOTONE_EXTINCTION = "MonotoneExtinction"
    UNSTABLE_WINNER_TAKES_ALL = "UnstableWinnerTakesAll"
    DEGENERATE = "Degenerate"


class Winner(enum.Enum):
    SPECIES_1 = "species 1"
    SPECIES_2 = "species 2"
    BOTH = "Both"
    KNIFE_EDGE = "Knife-edge"


@dataclass(frozen=True)
class TwoSpeciesParams:
    """Couplings plus the initial share ``a`` of species 1."""

    alpha: float
    beta: float
    a: float

    def __post_init__(self) -> None:
        _check_finite(alpha=self.alpha, beta=self.beta, a=self.a)
        if not 0.0 <= self.a <= 1.0:
            raise ValidationError(f"initial share a must lie in [0, 1], got {self.a}")


def _modes(params: TwoSpeciesParams) -> tuple[float, float, float]:
    """Mode coefficients ``(stationary, transient, lambda2)``: the two weights and the transient rate."""
    total = params.alpha + params.beta
    if abs(total) <= ZERO_TOL:
        raise NumericalError(
            "alpha + beta is zero: the coupling matrix has no eigenbasis "
            "and the closed form does not apply"
        )
    return 1.0 / total, params.a - params.beta / total, 1.0 - total


def closed_form(params: TwoSpeciesParams, t_steps: int) -> np.ndarray:
    """Population pair after ``t_steps`` according to the mode decomposition.

    No non-negativity adjustment is applied; past the first elimination the
    formula keeps going where the physical system would have reduced, so
    comparisons against the engine are only meaningful up to that event.
    ``t_steps`` must be an integer (not a bool) of at least 0; anything
    else raises ``ValidationError``.

    With both couplings negative the transient grows by ``|1 - alpha -
    beta| > 1`` per step. A result that would not be finite raises
    ``NumericalError``, for a Python ``int`` and a numpy integer
    ``t_steps`` alike. The one exception is a transient weight of exactly
    0, the knife edge, which stays at the stationary mix at every
    ``t_steps``.
    """
    _check_integer("t_steps", t_steps, 0)
    stationary, transient, lambda2 = _modes(params)
    stationary_mode = np.array([params.beta, params.alpha])
    transient_mode = np.array([1.0, -1.0])
    # A float base raises OverflowError; a numpy integer exponent makes a
    # numpy float, which overflows to inf instead.
    with np.errstate(over="ignore"):
        try:
            growth = lambda2**t_steps
        except OverflowError:
            growth = np.inf
        if transient == 0.0 and np.isinf(growth):
            growth = 0.0  # nothing to grow, and inf * 0 would be nan
        phi = stationary * stationary_mode + growth * transient * transient_mode
    if not np.isfinite(phi).all():
        raise NumericalError(
            f"the closed form overflows at t_steps={t_steps}: its transient grows "
            f"by |1 - alpha - beta| = {abs(lambda2)!r} per step"
        )
    return phi


def classify_regime(alpha: float, beta: float) -> Regime:
    """Sign-based regime: the classification depends on nothing else.

    Non-finite couplings raise ``ValidationError``.
    """
    _check_finite(alpha=alpha, beta=beta)
    if alpha == 0.0 and beta == 0.0:
        return Regime.DEGENERATE
    if alpha >= 0.0 and beta >= 0.0:
        return Regime.COEXISTENCE
    if alpha * beta < 0.0:
        return Regime.MONOTONE_EXTINCTION
    return Regime.UNSTABLE_WINNER_TAKES_ALL


def predict_winner(params: TwoSpeciesParams) -> Winner:
    """Who survives, straight from the parameters.

    Coexistence keeps both. With opposite signs the species whose row
    carries the negative transfer loses, regardless of the start. With
    both couplings nonpositive the start decides: species 1 survives
    exactly when the transient coefficient is positive, and a vanishing
    coefficient (within ``ZERO_TOL``) is the knife edge where neither is
    ever eliminated.
    """
    regime = classify_regime(params.alpha, params.beta)
    if regime in (Regime.COEXISTENCE, Regime.DEGENERATE):
        return Winner.BOTH
    if regime is Regime.MONOTONE_EXTINCTION:
        # Row 1's off-diagonal entry is beta; row 2's is alpha.
        return Winner.SPECIES_2 if params.beta < 0 else Winner.SPECIES_1
    _, coeff, _ = _modes(params)
    if abs(coeff) <= ZERO_TOL:
        return Winner.KNIFE_EDGE
    return Winner.SPECIES_1 if coeff > 0 else Winner.SPECIES_2
