"""Domain types and constructors for conserved-sum population evolution.

Conventions used throughout the package:

* Populations live on the probability simplex: entries are nonnegative
  and sum to one.
* An evolution matrix acts on column vectors, ``phi_next = M @ phi``, and
  every *column* of ``M`` sums to one, so the population total is conserved
  step by step.
* A generator ``C = M - I`` has zero column sums: whatever one species
  gains per step, others lose.

Conservation is checked at construction with a hard tolerance of
``CONSTRUCTION_TOL``; matrices carry only their entries (time is the step
count). Two more fixed tolerances are the model's numerical policy,
read at call time: ``ZERO_TOL`` (1e-12) is what counts as zero, so a
population below ``-ZERO_TOL`` has crossed and one in ``(-ZERO_TOL, 0)``
is float dust, and ``EIG_TOL`` (1e-9) is what counts as equal
eigenvalues. Only ``evolve``'s ``final_system`` is re-projected onto the
simplex, via ``make_population``; trajectory rows keep the raw values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFractionError,
    BadGeneratorError,
    BadScaleError,
    ConservationError,
    DimensionMismatchError,
    NegativeEntryError,
    ValidationError,
    ZeroTotalError,
)

#: Hard tolerance applied to conservation checks at construction time.
CONSTRUCTION_TOL = 1e-12
#: What counts as zero: a population below ``-ZERO_TOL`` has crossed.
ZERO_TOL = 1e-12
#: Eigenvalues ``w[p]`` and ``w[q]`` coincide when ``|w[p] - w[q]| <= EIG_TOL``.
EIG_TOL = 1e-9


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _check_vector(values: np.ndarray, noun: str) -> None:
    """Shape, finiteness and sign checks shared by every population input."""
    if values.ndim != 1 or values.size < 1:
        raise DimensionMismatchError(f"expected a nonempty 1-D vector of {noun}s")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValidationError(f"{noun} entry {bad} is not finite ({float(values[bad])})")
    if np.any(values < 0):
        bad = int(np.argmin(values))
        raise NegativeEntryError(f"{noun} entry {bad} is negative ({float(values[bad])})")


def _check_matrix(entries: np.ndarray, column_sum: float, exc, what: str) -> None:
    """Checks shared by every per-step matrix: square, finite, column sums."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 1:
        raise DimensionMismatchError(f"{what} must be a nonempty square matrix")
    finite = np.isfinite(entries)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise ValidationError(f"{what} entry ({i}, {j}) is not finite ({float(entries[i, j])})")
    sums = entries.sum(axis=0)
    dev = np.abs(sums - column_sum)
    if np.any(dev > CONSTRUCTION_TOL):
        j = int(np.argmax(dev))
        raise exc(
            f"column {j} of {what} sums to {float(sums[j])!r}, "
            f"expected {column_sum} within {CONSTRUCTION_TOL}"
        )


class MatrixKind(enum.Enum):
    STOCHASTIC = "Stochastic"
    COMPETITIVE = "Competitive"


@dataclass(frozen=True)
class MatrixClass:
    """Classification of an evolution matrix by the sign of its entries."""

    kind: MatrixKind
    negative_offdiag_count: int


@dataclass(frozen=True)
class PopulationVector:
    """Point on the probability simplex: population fractions per species."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        _check_vector(values, "population")
        total = float(values.sum())
        if abs(total - 1.0) > CONSTRUCTION_TOL:
            raise ConservationError(
                f"populations sum to {total!r}, expected 1 within {CONSTRUCTION_TOL}"
            )

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Per-step change matrix with zero column sums."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        _check_matrix(entries, 0.0, BadGeneratorError, "generator")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EvolutionMatrix:
    """Per-step linear map on populations with unit column sums.

    Diagonal entries are individual growth rates; off-diagonal entries are
    interspecies transfers, which may be negative (competitive regime).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        _check_matrix(entries, 1.0, ConservationError, "evolution matrix")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def make_population(raw) -> PopulationVector:
    """Normalize a vector of nonnegative abundances onto the simplex."""
    values = np.asarray(raw, dtype=float)
    _check_vector(values, "abundance")
    total = float(values.sum())
    if total <= 0:
        raise ZeroTotalError("total abundance must be positive")
    return PopulationVector(values / total)


def matrix_from_generator(generator: GeneratorMatrix) -> EvolutionMatrix:
    """Build the evolution matrix ``I + C`` from a zero-column-sum generator."""
    return EvolutionMatrix(np.eye(generator.n) + generator.entries)


def negative_offdiag_count(entries: np.ndarray) -> int:
    """Count off-diagonal entries below ``-ZERO_TOL``."""
    off = np.array(entries, dtype=float)
    np.fill_diagonal(off, 0.0)
    return int(np.count_nonzero(off < -ZERO_TOL))


def classify_matrix(matrix: EvolutionMatrix) -> MatrixClass:
    """Classify as stochastic (all entries in [0, 1]) or competitive.

    The negative off-diagonal count is reported for both kinds; it is zero
    whenever the matrix is stochastic.
    """
    entries = matrix.entries
    in_range = np.all(entries >= -ZERO_TOL) and np.all(entries <= 1.0 + ZERO_TOL)
    count = negative_offdiag_count(entries)
    kind = MatrixKind.STOCHASTIC if in_range else MatrixKind.COMPETITIVE
    return MatrixClass(kind=kind, negative_offdiag_count=count)


def two_species_matrix(alpha: float, beta: float) -> EvolutionMatrix:
    """Two-species coupling matrix ``[[1-alpha, beta], [alpha, 1-beta]]``.

    ``alpha`` is the per-step transfer out of species 1 into species 2;
    ``beta`` the reverse. Negative values model takings instead of gifts.
    """
    entries = np.array([[1.0 - alpha, beta], [alpha, 1.0 - beta]], dtype=float)
    return EvolutionMatrix(entries)


def _offdiag_magnitudes(n: int, coupling_scale: float, rng: np.random.Generator) -> np.ndarray:
    # Bounded away from zero so every entry of the result is strictly positive.
    mag = (0.05 + 0.95 * rng.random((n, n))) * (coupling_scale / (n - 1))
    np.fill_diagonal(mag, 0.0)
    return mag


def random_stochastic(n: int, coupling_scale: float, seed: int) -> EvolutionMatrix:
    """Random strictly positive stochastic matrix, near identity.

    Off-diagonal entries are O(coupling_scale); each diagonal entry absorbs
    whatever its column needs to sum to one. Deterministic for a fixed seed.
    """
    if n < 1:
        raise DimensionMismatchError("species count must be at least 1")
    if not 0 < coupling_scale < 1:
        raise BadScaleError(f"coupling_scale must lie in (0, 1), got {coupling_scale}")
    if n == 1:
        return EvolutionMatrix(np.array([[1.0]]))
    rng = np.random.default_rng(seed)
    entries = _offdiag_magnitudes(n, coupling_scale, rng)
    entries[np.diag_indices(n)] = 1.0 - entries.sum(axis=0)
    return EvolutionMatrix(entries)


def random_competitive(
    n: int, coupling_scale: float, neg_fraction: float, seed: int
) -> EvolutionMatrix:
    """Random conserved-sum matrix with a chosen share of negative transfers.

    Each off-diagonal entry is negated independently with probability
    ``neg_fraction``; diagonals rebalance their columns to sum to one.
    ``neg_fraction = 0`` degenerates to a stochastic draw.
    """
    if n < 2:
        raise DimensionMismatchError("competitive draws need at least 2 species")
    if not 0 < coupling_scale < 1:
        raise BadScaleError(f"coupling_scale must lie in (0, 1), got {coupling_scale}")
    if not 0 <= neg_fraction <= 1:
        raise BadFractionError(f"neg_fraction must lie in [0, 1], got {neg_fraction}")
    rng = np.random.default_rng(seed)
    entries = _offdiag_magnitudes(n, coupling_scale, rng)
    flip = rng.random((n, n)) < neg_fraction
    np.fill_diagonal(flip, False)
    entries[flip] *= -1.0
    entries[np.diag_indices(n)] = 1.0 - entries.sum(axis=0)
    return EvolutionMatrix(entries)
