"""Eigenstructure of evolution matrices.

Because every column of an evolution matrix sums to one, the all-ones row
is always a left eigenvector with eigenvalue 1, and the matching right
eigenvector (normalized onto the simplex when its entries share one sign)
is the stationary population mix. The second-largest eigenvalue modulus
sets the convergence rate toward that mix, or the divergence rate away
from it when transfers are negative and the modulus exceeds one.

Ordering convention: the eigenvalue pinned at 1 comes first regardless of
modulus, so ``eigenvalues[1]`` is always "the other" mode even in unstable
competitive systems where its modulus is larger than one. The remaining
eigenvalues are sorted by descending modulus, ties broken by descending
real part and then ascending imaginary part, for deterministic output.

Normalization convention: the leading right vector is scaled to sum one,
the leading left vector is stored as the exact all-ones vector, and each
non-leading right vector is scaled so its largest-magnitude component is
exactly 1 (this also fixes the phase of complex vectors). Non-leading
left vectors are taken from the inverse of the right-vector matrix, which
makes each left/right pairing sum to one by construction.

Memory: ``eigendecompose`` keeps one live n x n complex copy of the
eigenvectors. ``right`` is built as one reordered copy of ``eig``'s
vectors, which are dropped before ``inv``; the normalization runs in
place on its rows, and ``left`` is ``inv``'s result itself. The peak is
about two complex n x n arrays (``right`` and ``left``) besides LAPACK's
own workspace. ``check_biorthogonality`` normalizes its Gram matrix in
place.

Degeneracy rule: eigenvalues ``p < q`` coincide when
``|w[p] - w[q]| <= EIG_TOL``. The spectrum is flagged ``defective`` when
some coinciding pair has unit eigenvectors ``u, v`` with
``1 - |<u, v>| < 1e-12`` (the smaller singular value of ``[u v]`` is then
below 1e-6), and ``check_biorthogonality`` refuses the first coinciding
pair in row-major order. The pairs are found by one sort by real part
and windowed ``searchsorted``, and decided by one Gram product over the
eigenvectors that occur in a pair, so the cost is O(n log n) plus the
number of pairs (44,850 for ``eye(300)``), with no per-pair SVD.

``stationary_by_iteration`` is an independent cross-check: it never looks
at eigenvalues, only at repeated squaring of the matrix, whose columns all
converge to the stationary mix for a positive stochastic matrix. It
refuses a competitive matrix, one with an entry outside [0, 1].
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
    together. ``stationary`` is None when it cannot be resolved; the flags
    say why: a degenerate leading eigenvalue (multiplicity of 1 above one),
    mixed signs in the leading right vector (possible with negative
    transfers), or a defective eigenvector basis.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    stationary: PopulationVector | None
    lambda2_modulus: float
    leading_degenerate: bool = False
    stationary_mixed_sign: bool = False
    defective: bool = False


def _canonical_phase(vectors: np.ndarray) -> None:
    """Scale each row in place so its largest-magnitude component is exactly 1 (real, positive)."""
    pivots = vectors[np.arange(len(vectors)), np.abs(vectors).argmax(axis=1)]
    vectors /= pivots[:, None]


def _near_equal_pairs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``p < q`` of every pair with ``|w[p] - w[q]| <= EIG_TOL``, row-major.

    Candidates are the pairs whose real parts fall in one window of the
    eigenvalues sorted by real part, so the cost is a sort plus the number
    of candidates, not n^2. The window is ``2 * EIG_TOL`` wide so that
    rounding in the window bounds never drops a pair the exact test keeps.
    """
    order = np.argsort(w.real, kind="stable")
    real = w.real[order]
    ends = np.searchsorted(real, real + 2 * EIG_TOL, side="right")
    counts = ends - np.arange(1, w.size + 1)  # later sorted positions inside the window
    first = np.repeat(np.arange(w.size), counts)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[first], order[second]
    p, q = np.minimum(a, b), np.maximum(a, b)
    d = w[p] - w[q]
    # np.hypot equals abs() of a complex scalar bit for bit; np.abs of a
    # complex array can differ from it in the last place.
    keep = np.hypot(d.real, d.imag) <= EIG_TOL
    p, q = p[keep], q[keep]
    rank = np.lexsort((q, p))
    return p[rank], q[rank]


def _is_defective(vectors: np.ndarray, p: np.ndarray, q: np.ndarray) -> bool:
    """True when some near-equal pair ``(p, q)`` has (nearly) parallel eigenvectors.

    That means the geometric multiplicity is deficient. For unit ``u, v``
    the smaller singular value of ``[u v]`` is ``sqrt(1 - |<u, v>|)``, so
    ``sigma_min < 1e-6`` is decided as ``1 - |<u, v>| < 1e-12`` from one
    Gram product over the vectors that occur in a pair.
    """
    if p.size == 0:
        return False
    used, pos = np.unique(np.concatenate([p, q]), return_inverse=True)
    units = vectors[used] / np.linalg.norm(vectors[used], axis=1)[:, None]
    gram = units.conj() @ units.T
    overlap = np.abs(gram[pos[: p.size], pos[p.size :]])
    return bool(np.any(1.0 - overlap < 1e-12))


def eigendecompose(matrix: EvolutionMatrix) -> SpectralSummary:
    """Eigenvalues and biorthogonal eigenvector pairs of an evolution matrix.

    Never raises on degenerate or defective input; those conditions are
    reported through the summary flags so callers can decide what is usable.
    """
    a = np.asarray(matrix.entries, dtype=float)
    n = matrix.n
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
    # A real eigenvalue whose vector is real up to EIG_TOL gets an exactly real vector.
    realify = np.abs(w.imag) <= EIG_TOL
    realify &= np.abs(right.imag).max(axis=1) <= EIG_TOL * np.maximum(
        1.0, np.abs(right.real).max(axis=1)
    )
    right.imag[realify] = 0.0

    leading_degenerate = int(np.count_nonzero(np.abs(w - 1.0) <= EIG_TOL)) > 1
    defective = _is_defective(right, *_near_equal_pairs(w))

    # Leading vector: prefer the sum-one scaling that makes it a population.
    lead_sum = complex(right[0].sum())
    sum_normalized = abs(lead_sum) > EIG_TOL
    if sum_normalized:
        right[0] /= lead_sum

    stationary: PopulationVector | None = None
    mixed_sign = False
    if not sum_normalized:
        mixed_sign = True  # a zero-sum leading vector necessarily changes sign
    elif not leading_degenerate:
        candidate = right[0].real
        if np.min(candidate) >= -ZERO_TOL:
            stationary = PopulationVector(np.maximum(candidate, 0.0))
        else:
            mixed_sign = True

    try:
        left = np.linalg.inv(right.T)  # rows pair with right vectors: left @ right.T = I
        if not np.all(np.isfinite(left)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # Defective basis: fall back to left eigenvectors of the transpose,
        # matched greedily by eigenvalue. Pairings may not be normalizable.
        wl, vl = np.linalg.eig(a.T)
        diff = wl[None, :] - w[:, None]
        dist = np.hypot(diff.real, diff.imag)
        matched = []
        for p in range(n):
            q = int(np.argmin(dist[p]))  # first of the nearest unused, as ids ascend
            dist[:, q] = np.inf
            matched.append(q)
        left = vl.T[matched].astype(complex, copy=False)
        _canonical_phase(left)
        for p in range(n):
            pairing = complex(left[p] @ right[p])
            if abs(pairing) > EIG_TOL:
                left[p] /= pairing
    if sum_normalized:
        left[0] = np.ones(n)  # exact: pairs to 1 with the sum-one leading vector

    lambda2_modulus = float(abs(w[1])) if n >= 2 else 0.0

    for array in (w, right, left):
        array.flags.writeable = False
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
    """Largest cross-pairing between left and right vectors of different modes.

    Pairings are first normalized so each left/right pair sums to one, and
    the largest cross term's modulus is returned (0.0 for one species).
    Raises ``NumericalError`` when two eigenvalues coincide within
    ``EIG_TOL``, because the pairing is then ambiguous.
    """
    n = summary.eigenvalues.size
    p, q = _near_equal_pairs(summary.eigenvalues)
    if p.size:
        raise NumericalError(f"eigenvalues {p[0]} and {q[0]} coincide within {EIG_TOL}")
    gram = summary.left_vectors @ summary.right_vectors.T
    diag = np.diag(gram).copy()
    if np.any(np.abs(diag) < 1e-300):
        raise NumericalError("a left/right pairing vanished; cannot normalize")
    gram /= diag[:, None]
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram))) if n > 1 else 0.0
