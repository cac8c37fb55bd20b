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
import math
from dataclasses import dataclass

import numpy as np

from .core import ZERO_TOL, PopulationVector, two_species_matrix
from .dynamics import ActiveSystem, SimulationConfig, evolve
from .errors import BadFractionError, DegenerateParamsError, ValidationError


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


def _check_finite(**values: float) -> None:
    # Every comparison with NaN is False, so a sign test would give a
    # confident answer for a non-finite coupling instead of failing.
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TwoSpeciesParams:
    """Couplings plus the initial share ``a`` of species 1."""

    alpha: float
    beta: float
    a: float

    def __post_init__(self) -> None:
        _check_finite(alpha=self.alpha, beta=self.beta, a=self.a)
        if not 0.0 <= self.a <= 1.0:
            raise BadFractionError(f"initial share a must lie in [0, 1], got {self.a}")


@dataclass(frozen=True)
class ClosedFormSolution:
    """Mode coefficients: stationary weight, transient weight, transient rate."""

    stationary_coeff: float
    transient_coeff: float
    lambda2: float


def closed_form_solution(params: TwoSpeciesParams) -> ClosedFormSolution:
    total = params.alpha + params.beta
    if abs(total) <= ZERO_TOL:
        raise DegenerateParamsError(
            "alpha + beta is zero: the coupling matrix has no eigenbasis "
            "and the closed form does not apply"
        )
    return ClosedFormSolution(
        stationary_coeff=1.0 / total,
        transient_coeff=params.a - params.beta / total,
        lambda2=1.0 - total,
    )


def closed_form(params: TwoSpeciesParams, t_steps: int) -> np.ndarray:
    """Population pair after ``t_steps`` according to the mode decomposition.

    No non-negativity adjustment is applied; past the first elimination the
    formula keeps going where the physical system would have reduced, so
    comparisons against the engine are only meaningful up to that event.
    """
    coeffs = closed_form_solution(params)
    stationary_mode = np.array([params.beta, params.alpha])
    transient_mode = np.array([1.0, -1.0])
    return (
        coeffs.stationary_coeff * stationary_mode
        + coeffs.lambda2**t_steps * coeffs.transient_coeff * transient_mode
    )


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
    coeff = closed_form_solution(params).transient_coeff
    if abs(coeff) <= ZERO_TOL:
        return Winner.KNIFE_EDGE
    return Winner.SPECIES_1 if coeff > 0 else Winner.SPECIES_2


@dataclass(frozen=True)
class CrosscheckReport:
    max_deviation: float
    steps_compared: int
    passed: bool


def crosscheck(
    params: TwoSpeciesParams, steps: int, tol: float
) -> CrosscheckReport:
    """Run the engine and the closed form in lockstep and compare.

    The comparison covers steps 0..min(steps, first elimination); the
    engine runs with the convergence stop disabled so every step exists
    on both sides.
    """
    matrix = two_species_matrix(params.alpha, params.beta)
    start = PopulationVector(np.array([params.a, 1.0 - params.a]))
    config = SimulationConfig(max_steps=steps, convergence_tol=0.0, record_every=1)
    trajectory = evolve(ActiveSystem(matrix=matrix, populations=start), config)

    eliminations = trajectory.events
    last_step = min(steps, eliminations[0].step_index) if eliminations else steps
    keep = (trajectory.event_species < 0) & (trajectory.steps <= last_step)
    deviation = 0.0
    compared = int(keep.sum())
    for t, values in zip(trajectory.steps[keep].tolist(), trajectory.values[keep]):
        deviation = max(deviation, float(np.max(np.abs(values - closed_form(params, t)))))
    return CrosscheckReport(
        max_deviation=deviation, steps_compared=compared, passed=deviation <= tol
    )
