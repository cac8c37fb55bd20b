"""Eigenstructure of evolution matrices.

Because every column of an evolution matrix sums to one, the all-ones row
is always a left eigenvector with eigenvalue 1, and the matching right
eigenvector (normalized onto the simplex when its entries share one sign)
is the stationary population mix. The second-largest eigenvalue modulus
sets the convergence rate toward that mix, or the divergence rate away
from it when transfers are negative and the modulus exceeds one.

``eigendecompose`` orders and normalizes the eigenpairs and sets the
flags. ``_basis_condition`` gives the condition number κ₁ = ‖R‖₁·‖R⁻¹‖₁
of the stored right vectors R (as columns: the leading one scaled to sum
1, the others to a largest component of exactly 1). The left vectors are
R⁻¹ as ``inv`` returns it, or None when the right vectors are linearly
dependent, so ``left @ right.T = I`` holds to about κ₁ times machine
epsilon by construction, whatever the eigenvalues. ``defective`` is κ₁
above a cut, and ``check_biorthogonality`` reports κ₁.
``stationary_by_iteration`` is an oracle that never looks at eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EIG_TOL,
    ZERO_TOL,
    EvolutionMatrix,
    PopulationVector,
    _check_integer,
    _check_tolerance,
)
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class SpectralSummary:
    """Full eigenstructure of an evolution matrix.

    ``eigenvalues[p]``, ``right_vectors[p]`` and ``left_vectors[p]`` belong
    together: ``left_vectors`` is ``inv(right_vectors.T)``, so row p pairs
    with right vector p even where eigenvalues coincide. It is None when
    the right vectors are linearly dependent. ``stationary`` is None when
    it cannot be resolved; the flags say why: a degenerate leading
    eigenvalue (multiplicity of 1 above one), mixed signs in the leading
    right vector (possible with negative transfers), or a defective
    eigenvector basis (see ``eigendecompose``), whose leading vector can be
    complex.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    stationary: PopulationVector | None
    lambda2_modulus: float
    leading_degenerate: bool = False
    stationary_mixed_sign: bool = False
    defective: bool = False


def _canonical_phase(vectors: np.ndarray) -> None:
    """Scale each row in place so its largest-magnitude component is exactly 1 (real, positive)."""
    pivots = vectors[np.arange(len(vectors)), np.abs(vectors).argmax(axis=1)]
    vectors /= pivots[:, None]


# κ₁ of the right vectors above which the basis is defective; see eigendecompose.
_DEFECTIVE_CONDITION = 1e11


def _basis_condition(right: np.ndarray, left: np.ndarray | None) -> float:
    """κ₁ of the right vectors ``right`` (rows), read from their inverse ``left``; inf when None."""
    if left is None:
        return np.inf
    return float(np.linalg.norm(right.T, 1) * np.linalg.norm(left, 1))


def eigendecompose(matrix: EvolutionMatrix) -> SpectralSummary:
    """Eigenvalues and biorthogonal eigenvector pairs of an evolution matrix.

    The eigenvalue nearest 1 comes first whatever its modulus, so
    ``eigenvalues[1]`` is the other mode even when its modulus exceeds one;
    the rest follow by descending modulus, then descending real part, then
    ascending imaginary part. The leading right vector is scaled to sum to
    one, and every other right vector so that its largest-magnitude
    component is exactly 1 (which fixes a complex vector's phase). The left
    vectors are the rows of ``inv(right.T)`` exactly as ``inv`` returns
    them, so each pair pairs to one; they are None when ``inv`` finds the
    right vectors singular or returns a non-finite entry. When eigenvalue 1
    is simple, the leading left vector is the all-ones row to within
    rounding; when it repeats, it is the dual of the leading right vector
    instead. One complex n x n copy of the vectors is held besides
    ``left``. Never raises on degenerate or defective input: the summary's
    flags report it.

    ``defective`` is κ₁ above ``_DEFECTIVE_CONDITION`` = 1e11 (inf without
    left vectors). No eigenvalue-equality test decides it (Golub and
    Wilkinson, SIAM Review 18, 1976): ``eig`` splits the Jordan block
    ``two_species_matrix(0.2, -0.2)``'s double 1 into ``1 ± 9.4e-9i``,
    wider than its equality bound (below) of 1.4e-9. The cut is the
    geometric midpoint of the measured gap: random draws reach at most
    8.6e6, and the split pairs ``two_species_matrix(a, -a)``, a in {0.1,
    0.2, 0.3, -0.1}, read 4.5e14 to 1.35e15. At 1e11, ``left @ right.T =
    I`` holds to about 1e-5.

    ``eig`` computes an eigenvalue to within about machine epsilon times
    ``‖M‖``, so two eigenvalues coincide, and one is real, within
    ``EIG_TOL * max(1, ‖M‖₁)`` (1-norm: the largest column sum of
    magnitudes). The other tests compare entries of vectors scaled to a
    largest component of 1, so they keep ``EIG_TOL`` itself.
    """
    n = matrix.n
    a = np.asarray(matrix.entries, dtype=float)
    tol = EIG_TOL * max(1.0, float(np.linalg.norm(a, 1)))
    w, v = np.linalg.eig(a)

    lead = int(np.argmin(np.abs(w - 1.0)))
    rest = sorted(
        (p for p in range(n) if p != lead),
        key=lambda p: (-abs(w[p]), -w[p].real, w[p].imag),
    )
    order = [lead, *rest]
    w = w[order]
    right = v.T[order].astype(complex, copy=False)  # right[p] is eigenvector p
    del v  # one live n x n copy of the vectors from here on
    _canonical_phase(right)
    # An eigenvalue real within tol whose vector is real within EIG_TOL gets an
    # exactly real vector.
    realify = np.abs(w.imag) <= tol
    realify &= np.abs(right.imag).max(axis=1) <= EIG_TOL
    right.imag[realify] = 0.0

    leading_degenerate = int(np.count_nonzero(np.abs(w - 1.0) <= tol)) > 1

    # Leading vector: prefer the sum-one scaling that makes it a population.
    lead_sum = complex(right[0].sum())
    sum_normalized = abs(lead_sum) > EIG_TOL
    if sum_normalized:
        right[0] /= lead_sum

    stationary: PopulationVector | None = None
    mixed_sign = False
    if not sum_normalized:
        mixed_sign = True  # a zero-sum leading vector necessarily changes sign
    elif not leading_degenerate and not right[0].imag.any():
        candidate = right[0].real
        if np.min(candidate) >= -ZERO_TOL:
            stationary = PopulationVector(np.maximum(candidate, 0.0))
        else:
            mixed_sign = True

    try:
        left = np.linalg.inv(right.T)  # rows pair with right vectors: left @ right.T = I
    except np.linalg.LinAlgError:  # exactly singular
        left = None
    if left is not None and np.all(np.isfinite(left)):
        left.flags.writeable = False
    else:
        left = None
    defective = _basis_condition(right, left) > _DEFECTIVE_CONDITION

    lambda2_modulus = float(abs(w[1])) if n >= 2 else 0.0

    w.flags.writeable = False
    right.flags.writeable = False
    return SpectralSummary(
        eigenvalues=w,
        right_vectors=right,
        left_vectors=left,
        stationary=stationary,
        lambda2_modulus=lambda2_modulus,
        leading_degenerate=leading_degenerate,
        stationary_mixed_sign=mixed_sign,
        defective=defective,
    )


def stationary_by_iteration(
    matrix: EvolutionMatrix, tol: float = 1e-10, max_iter: int = 64
) -> PopulationVector:
    """Stationary mix via repeated squaring of a stochastic matrix.

    Squares the matrix until all its columns agree entrywise within ``tol``
    and returns the common column. Deliberately eigenvalue-free so it can
    serve as an independent oracle for ``eigendecompose``.

    Raises ``NumericalError`` when the iteration budget runs out, e.g.
    for periodic chains such as permutation matrices. Every entry must
    lie in [0, 1] within ``ZERO_TOL`` (the matrix is stochastic, not
    competitive), ``tol`` must be a finite number of at least 0 and
    ``max_iter`` an integer of at least 1; anything else raises
    ``ValidationError``.
    """
    _check_tolerance("tol", tol)
    _check_integer("max_iter", max_iter, 1)
    entries = matrix.entries
    if not (np.all(entries >= -ZERO_TOL) and np.all(entries <= 1.0 + ZERO_TOL)):
        raise ValidationError("iterated averaging requires a stochastic matrix")
    power = np.asarray(matrix.entries, dtype=float).copy()
    for _ in range(max_iter):
        spread = float(np.max(power.max(axis=1) - power.min(axis=1)))
        if spread < tol:
            common = power.mean(axis=1)
            return PopulationVector(common / common.sum())
        power = power @ power
    raise NumericalError(
        f"columns did not agree within {tol} after {max_iter} squarings"
    )


def check_biorthogonality(summary: SpectralSummary) -> float:
    """Condition number κ₁ of the stored right eigenvector basis (see the module docstring).

    κ₁ bounds how far rounding in a mode expansion can be amplified, and
    ``summary.defective`` is κ₁ above the cut ``eigendecompose`` states. It
    is 1.0 for one species. Coinciding eigenvalues need no refusal: row p
    of ``left_vectors`` pairs with right vector p by construction. Raises
    ``NumericalError`` only when the summary has no left vectors.
    """
    if summary.left_vectors is None:
        raise NumericalError("the right eigenvectors are linearly dependent")
    return _basis_condition(summary.right_vectors, summary.left_vectors)
