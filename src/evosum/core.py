"""Domain types and constructors for conserved-sum population evolution.

Conventions used throughout the package:

* Populations live on the probability simplex: entries are nonnegative
  and sum to one.
* An evolution matrix acts on column vectors, ``phi_next = M @ phi``, and
  every *column* of ``M`` sums to one, so the population total is conserved
  step by step.
* A generator ``C = M - I`` has zero column sums: whatever one species
  gains per step, others lose.

Matrices carry only their entries: time is the step count. The three
tolerances below are fixed constants, read at call time, not settings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Hard tolerance applied to conservation checks at construction time.
CONSTRUCTION_TOL = 1e-12
#: What counts as zero: a population below ``-ZERO_TOL`` has crossed, and one
#: between ``-ZERO_TOL`` and 0 is float dust.
ZERO_TOL = 1e-12
#: Eigenvalues ``w[p]`` and ``w[q]`` of a matrix ``M`` coincide when
#: ``|w[p] - w[q]| <= EIG_TOL * max(1, ‖M‖₁)``: relative to the matrix's scale.
EIG_TOL = 1e-9


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


def _is_real(value) -> bool:
    # Bools are refused as in scenario files, where JSON true is not a number.
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _check_integer(name: str, value, minimum: int) -> None:
    # A float count passes a `< 1` test, then fails inside the engine as a
    # bare TypeError or IndexError, or is silently truncated by int().
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}")


def _check_tolerance(name: str, value) -> None:
    # NaN fails every comparison and inf passes every one, so either would
    # decide a test without looking at the data.
    if not _is_real(value) or not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be a finite nonnegative number, got {value!r}")


def _check_finite(**values) -> None:
    # Every comparison with NaN is False, so a sign test would give a
    # confident answer for a non-finite coupling instead of failing.
    for name, value in values.items():
        if not _is_real(value) or not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def _check_vector(values: np.ndarray, noun: str) -> None:
    """Shape, finiteness and sign checks shared by every population input."""
    if values.ndim != 1 or values.size < 1:
        raise ValidationError(f"expected a nonempty 1-D vector of {noun}s")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValidationError(f"{noun} entry {bad} is not finite ({float(values[bad])})")
    if np.any(values < 0):
        bad = int(np.argmin(values))
        raise ValidationError(f"{noun} entry {bad} is negative ({float(values[bad])})")


def _column_sums(entries: np.ndarray, column_sum: float) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of each matrix in ``entries`` (..., n, n), and whether all are in tolerance.

    Returns ``(sums, ok)``: ``sums`` has shape (..., n) and ``ok`` shape
    (...), True where every column is within ``CONSTRUCTION_TOL`` of
    ``column_sum``. A non-finite entry makes its column sum inf or NaN,
    and NaN fails ``<=``, so ``ok`` also means every entry is finite. The
    sums run with overflow and invalid-value warnings off: an overflowing
    sum is reported as inf by the caller, not as a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = entries.sum(axis=-2)
    return sums, (np.abs(sums - column_sum) <= CONSTRUCTION_TOL).all(axis=-1)


def _check_matrix(entries: np.ndarray, column_sum: float, what: str) -> None:
    """Checks shared by every per-step matrix, in order: square, finite, column sums.

    A non-finite entry is named by its first position; else the column
    whose ``_column_sums`` sum is furthest off is named when it is outside
    ``CONSTRUCTION_TOL``.
    """
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 1:
        raise ValidationError(f"{what} must be a nonempty square matrix")
    sums, _ = _column_sums(entries, column_sum)
    finite = np.isfinite(entries)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise ValidationError(f"{what} entry ({i}, {j}) is not finite ({float(entries[i, j])})")
    dev = np.abs(sums - column_sum)
    if np.any(dev > CONSTRUCTION_TOL):
        j = int(np.argmax(dev))
        raise ValidationError(
            f"column {j} of {what} sums to {float(sums[j])!r}, "
            f"expected {column_sum} within {CONSTRUCTION_TOL}"
        )


@dataclass(frozen=True)
class PopulationVector:
    """Point on the probability simplex: population fractions per species."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        _check_vector(values, "population")
        with np.errstate(over="ignore"):  # an overflowing total is reported below
            total = float(values.sum())
        if abs(total - 1.0) > CONSTRUCTION_TOL:
            raise ValidationError(
                f"populations sum to {total!r}, expected 1 within {CONSTRUCTION_TOL}"
            )

    @property
    def n(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)


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
        _check_matrix(entries, 1.0, "evolution matrix")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _derived_matrix(entries: np.ndarray) -> EvolutionMatrix:
    """An ``EvolutionMatrix`` over ``entries`` computed from a checked one, not checked again.

    Folding a species out keeps every column sum in exact arithmetic, but
    rounding can move a sum by an ulp or so; a column that sat just inside
    ``CONSTRUCTION_TOL`` on input can land just outside it. ``entries`` is
    made read-only and kept, not copied: the caller must own it.
    """
    matrix = object.__new__(EvolutionMatrix)
    entries.flags.writeable = False
    object.__setattr__(matrix, "entries", entries)
    return matrix


def make_population(raw) -> PopulationVector:
    """Normalize a vector of nonnegative abundances onto the simplex.

    The entries must be finite and nonnegative, with a positive total that
    is itself finite: finite entries near the largest float can sum to inf.
    """
    values = np.asarray(raw, dtype=float)
    _check_vector(values, "abundance")
    with np.errstate(over="ignore"):  # an overflowing total is reported below
        total = float(values.sum())
    if not math.isfinite(total):
        raise ValidationError(f"total abundance is not finite ({total})")
    if total <= 0:
        raise ValidationError("total abundance must be positive")
    return PopulationVector(values / total)


def negative_offdiag_count(entries: np.ndarray) -> int:
    """Count off-diagonal entries below ``-ZERO_TOL``."""
    negative = np.asarray(entries, dtype=float) < -ZERO_TOL
    return int(np.count_nonzero(negative)) - int(np.count_nonzero(np.diagonal(negative)))


def _two_species_family(alpha, beta, scales) -> np.ndarray:
    """The entries ``[[1-a, b], [a, 1-b]]`` with ``a = alpha*c`` and ``b = beta*c`` per scale c.

    ``scales`` of shape (S,) gives an (S, 2, 2) stack, and a scalar scale
    one (2, 2) matrix. The arithmetic is Python float arithmetic done
    elementwise: a product overflows to inf and ``inf * 0`` is NaN, with
    the warnings numpy would give turned off, so a bad scale is reported
    by the matrix check. No entry is checked here.
    """
    scales = np.asarray(scales, dtype=float)
    entries = np.empty((*scales.shape, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(alpha, scales, out=entries[..., 1, 0])
        np.multiply(beta, scales, out=entries[..., 0, 1])
        np.subtract(1.0, entries[..., 1, 0], out=entries[..., 0, 0])
        np.subtract(1.0, entries[..., 0, 1], out=entries[..., 1, 1])
    return entries


def two_species_matrix(alpha: float, beta: float) -> EvolutionMatrix:
    """Two-species coupling matrix ``[[1-alpha, beta], [alpha, 1-beta]]``.

    ``alpha`` is the per-step transfer out of species 1 into species 2;
    ``beta`` the reverse. Negative values model takings instead of gifts.
    """
    return EvolutionMatrix(_two_species_family(alpha, beta, 1.0))


def random_stochastic(n: int, coupling_scale: float, seed: int) -> EvolutionMatrix:
    """Random strictly positive stochastic matrix, near identity.

    Off-diagonal entries are O(coupling_scale); each diagonal entry absorbs
    whatever its column needs to sum to one. Deterministic for a fixed seed,
    which must be an integer >= 0. ``coupling_scale`` must be a finite real
    number (not a bool) in (0, 1). For n >= 2 it is the draw of
    :func:`random_competitive` with no negative transfers.
    """
    _check_integer("species count", n, 1)
    if n >= 2:
        return random_competitive(n, coupling_scale, 0.0, seed)
    _check_integer("seed", seed, 0)
    _check_finite(coupling_scale=coupling_scale)
    if not 0 < coupling_scale < 1:
        raise ValidationError(f"coupling_scale must lie in (0, 1), got {coupling_scale}")
    return EvolutionMatrix(np.array([[1.0]]))


def random_competitive(
    n: int, coupling_scale: float, neg_fraction: float, seed: int
) -> EvolutionMatrix:
    """Random conserved-sum matrix with a chosen share of negative transfers.

    Each off-diagonal entry is negated independently with probability
    ``neg_fraction``; diagonals rebalance their columns to sum to one.
    ``neg_fraction = 0`` gives :func:`random_stochastic`'s draw. ``seed`` and
    ``coupling_scale`` are as for :func:`random_stochastic`, and
    ``neg_fraction`` is a finite real number (not a bool) in [0, 1].
    """
    _check_integer("species count", n, 1)
    _check_integer("seed", seed, 0)
    if n < 2:
        raise ValidationError("competitive draws need at least 2 species")
    _check_finite(coupling_scale=coupling_scale, neg_fraction=neg_fraction)
    if not 0 < coupling_scale < 1:
        raise ValidationError(f"coupling_scale must lie in (0, 1), got {coupling_scale}")
    if not 0 <= neg_fraction <= 1:
        raise ValidationError(f"neg_fraction must lie in [0, 1], got {neg_fraction}")
    rng = np.random.default_rng(seed)
    # Bounded away from zero so every entry of a stochastic draw is strictly positive.
    entries = (0.05 + 0.95 * rng.random((n, n))) * (coupling_scale / (n - 1))
    np.fill_diagonal(entries, 0.0)
    flip = rng.random((n, n)) < neg_fraction
    np.fill_diagonal(flip, False)
    entries[flip] *= -1.0
    entries[np.diag_indices(n)] = 1.0 - entries.sum(axis=0)
    return EvolutionMatrix(entries)
