import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evosum import (
    EvolutionMatrix,
    PopulationVector,
    SpectralSummary,
    check_biorthogonality,
    eigendecompose,
    random_competitive,
    random_stochastic,
    stationary_by_iteration,
    two_species_matrix,
)
from evosum.cli import main
from evosum.errors import NumericalError, ValidationError

SWAP = EvolutionMatrix([[0.0, 1.0], [1.0, 0.0]])
EIG_TOL = 1e-9
ZERO_TOL = 1e-12
DEFECTIVE_CONDITION = 1e11


def reference_defective(right):
    """Reference: ``defective`` as κ₁ of the stored right vectors, inverted afresh, above the cut."""
    return bool(np.linalg.cond(right.T, 1) > DEFECTIVE_CONDITION)


def reference_right_vectors(w, v, tol):
    """Reference: the per-vector loop ``eigendecompose`` ran before it normalized with array ops.

    Takes ``eig``'s ``(w, v)`` and returns the reordered eigenvalues and the
    right vectors as rows: each scaled so its largest-magnitude component
    is 1, and made exactly real when its eigenvalue's imaginary part is
    within ``tol`` and its own within ``EIG_TOL`` times its largest real
    component.
    """
    n = w.size
    lead = int(np.argmin(np.abs(w - 1.0)))
    rest = sorted(
        (p for p in range(n) if p != lead),
        key=lambda p: (-abs(w[p]), -w[p].real, w[p].imag),
    )
    order = [lead, *rest]
    w = w[order]
    v = v[:, order].astype(complex)
    right = np.empty((n, n), dtype=complex)
    for p in range(n):
        vec = v[:, p] / v[int(np.argmax(np.abs(v[:, p]))), p]
        if abs(w[p].imag) <= tol:
            if np.max(np.abs(vec.imag)) <= EIG_TOL * max(1.0, np.max(np.abs(vec.real))):
                vec = vec.real.astype(complex)
        right[p] = vec
    return w.copy(), right


def reference_eigendecompose(matrix):
    """Reference: ``eigendecompose`` as it was before its one-copy rewrite.

    Right vectors from ``reference_right_vectors``, left vectors copied out
    of ``inv`` into their own array, ``defective`` from
    ``reference_defective``.
    """
    a = np.asarray(matrix.entries, dtype=float)
    n = matrix.n
    tol = EIG_TOL * max(1.0, np.abs(a).sum(axis=0).max())
    w, right = reference_right_vectors(*np.linalg.eig(a), tol)
    leading_degenerate = int(np.count_nonzero(np.abs(w - 1.0) <= tol)) > 1
    lead_sum = complex(right[0].sum())
    sum_normalized = abs(lead_sum) > EIG_TOL
    if sum_normalized:
        right[0] = right[0] / lead_sum
    stationary = None
    mixed_sign = not sum_normalized
    if sum_normalized and not leading_degenerate and np.all(right[0].imag == 0):
        candidate = right[0].real
        if np.min(candidate) >= -ZERO_TOL:
            stationary = PopulationVector(np.maximum(candidate, 0.0))
        else:
            mixed_sign = True
    left = np.empty((n, n), dtype=complex)
    inv = np.linalg.inv(right.T)
    assert np.all(np.isfinite(inv))  # a dependent basis is tested in TestDependentRightVectors
    left[:] = inv
    return SpectralSummary(
        eigenvalues=w,
        right_vectors=right,
        left_vectors=left,
        stationary=stationary,
        lambda2_modulus=float(abs(w[1])) if n >= 2 else 0.0,
        leading_degenerate=leading_degenerate,
        stationary_mixed_sign=mixed_sign,
        defective=reference_defective(right),
    )


def reference_basis_condition(summary):
    """Reference: ``check_biorthogonality``'s refusal without left vectors, else
    ``np.linalg.cond`` of the stored basis, which inverts the right vectors afresh.
    """
    if summary.left_vectors is None:
        raise NumericalError("the right eigenvectors are linearly dependent")
    return float(np.linalg.cond(summary.right_vectors.T, 1))


def biorthogonality_outcome(check, summary):
    try:
        return check(summary)
    except NumericalError as exc:
        return str(exc)


def assert_same_bytes(actual, expected):
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def pairwise_flags(matrix, summary):
    """Reference: ``(leading_degenerate, defective)`` from a per-eigenvalue loop and
    ``reference_defective``, the tolerance computed from the matrix as
    ``reference_eigendecompose`` does.
    """
    tol = EIG_TOL * max(1.0, np.abs(matrix.entries).sum(axis=0).max())
    w = summary.eigenvalues
    leading_degenerate = sum(abs(w[p] - 1.0) <= tol for p in range(w.size)) > 1
    return leading_degenerate, reference_defective(summary.right_vectors)


def assert_left_vectors_pair(summary):
    """``check_biorthogonality`` is κ₁ of the stored basis bit for bit, or refuses
    exactly when there are no left vectors; and ``left @ right.T`` is within
    κ₁·n·ε of ``I``, whatever the eigenvalues.
    """
    kappa = biorthogonality_outcome(check_biorthogonality, summary)
    assert kappa == biorthogonality_outcome(reference_basis_condition, summary)
    if summary.left_vectors is not None:
        n = summary.eigenvalues.size
        gram = summary.left_vectors @ summary.right_vectors.T
        assert np.max(np.abs(gram - np.eye(n))) <= kappa * n * np.finfo(float).eps


def assert_matches_pairwise(matrix):
    summary = eigendecompose(matrix)
    assert (summary.leading_degenerate, summary.defective) == pairwise_flags(matrix, summary)
    assert_left_vectors_pair(summary)
    return summary


def block_diagonal(blocks):
    n = sum(block.shape[0] for block in blocks)
    out = np.zeros((n, n))
    start = 0
    for block in blocks:
        k = block.shape[0]
        out[start : start + k, start : start + k] = block
        start += k
    return EvolutionMatrix(out)


def cyclic(n):
    return np.roll(np.eye(n), 1, axis=0)


class TestEigendecompose:
    def test_two_species_spectrum(self):
        summary = eigendecompose(two_species_matrix(0.1, 0.2))
        assert_allclose(summary.eigenvalues, [1.0, 0.7], atol=1e-12)
        assert_allclose(summary.stationary.values, [2 / 3, 1 / 3], atol=1e-12)
        # second mode is proportional to (1, -1)
        mode = summary.right_vectors[1]
        assert_allclose(mode / mode[0], [1.0, -1.0], atol=1e-12)

    def test_leading_left_vector_is_all_ones(self):
        # The left vectors invert the right ones; eigenvalue 1 is simple, so
        # the leading left vector is the ones row to within rounding.
        summary = eigendecompose(two_species_matrix(0.1, 0.2))
        assert_allclose(summary.left_vectors @ summary.right_vectors.T, np.eye(2), rtol=0, atol=1e-15)
        assert_allclose(summary.left_vectors[0], np.ones(2), rtol=0, atol=1e-15)

    def test_identity_flagged_degenerate(self):
        summary = eigendecompose(EvolutionMatrix(np.eye(3)))
        assert_allclose(summary.eigenvalues, np.ones(3), atol=1e-12)
        assert summary.leading_degenerate
        assert summary.stationary is None

    def test_matches_iteration_oracle(self):
        matrix = random_stochastic(4, 0.2, seed=11)
        by_eig = eigendecompose(matrix).stationary.values
        by_iter = stationary_by_iteration(matrix, tol=1e-12, max_iter=64).values
        assert np.max(np.abs(by_eig - by_iter)) < 1e-8

    def test_mixed_sign_stationary_flagged(self):
        # Opposite-sign couplings give a leading vector with both signs.
        summary = eigendecompose(two_species_matrix(0.1, -0.05))
        assert summary.stationary is None
        assert summary.stationary_mixed_sign

    def test_defective_matrix_flagged_not_raised(self):
        # alpha + beta = 0 with alpha != 0: a single eigenvector for a double eigenvalue
        summary = eigendecompose(two_species_matrix(0.05, -0.05))
        assert summary.defective
        assert summary.leading_degenerate

    def test_single_species(self):
        summary = eigendecompose(EvolutionMatrix([[1.0]]))
        assert_allclose(summary.stationary.values, [1.0])
        assert summary.lambda2_modulus == 0.0
        assert check_biorthogonality(summary) == 1.0


class TestDegeneratePairs:
    """On degenerate spectra the flags agree with the reference loop, and the
    left vectors pair with the right ones."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    def test_identity(self, n):
        summary = assert_matches_pairwise(EvolutionMatrix(np.eye(n)))
        assert n == 1 or not summary.defective

    @pytest.mark.parametrize("copies", [2, 3, 5])
    def test_block_copies_of_one_stochastic_block(self, copies):
        block = random_stochastic(4, 0.2, seed=copies).entries
        summary = assert_matches_pairwise(block_diagonal([block] * copies))
        assert summary.leading_degenerate

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.3, -0.1])
    def test_two_species_defective(self, alpha):
        assert_matches_pairwise(two_species_matrix(alpha, -alpha))

    def test_near_defective_pairs_straddle_the_threshold(self):
        # Eigenvalues 1 and about 1 + delta (delta below EIG_TOL) whose right
        # vectors (1+t, t-1) and (1, -1) are about t apart, so κ₁ of the
        # basis falls as t grows: from 2.4e12 to 5.0e9, across the 1e11 cut
        # between t = 1.7e-6 and 2.7e-6.
        delta = 5e-10
        flags = []
        for t in np.geomspace(3e-7, 1e-5, 9):
            c = delta / (2 * t)
            matrix = EvolutionMatrix(
                [[1 - c * (1 - t), -c * (1 + t)], [c * (1 - t), 1 + c * (1 + t)]]
            )
            flags.append(assert_matches_pairwise(matrix).defective)
        assert flags == [True] * 5 + [False] * 4

    @pytest.mark.parametrize("n, copies", [(5, 1), (6, 1), (3, 2), (4, 3), (7, 2)])
    def test_cyclic_permutations(self, n, copies):
        summary = assert_matches_pairwise(block_diagonal([cyclic(n)] * copies))
        assert_allclose(np.abs(summary.eigenvalues), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_draws(self, seed):
        assert_matches_pairwise(random_stochastic(3 + 7 * seed, 0.3, seed))
        assert_matches_pairwise(random_competitive(3 + 7 * seed, 0.3, 0.5, seed))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["stochastic", "cyclic", "identity", "defective"]),
                st.integers(min_value=1, max_value=5),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_diagonal_property(self, kinds, seed):
        blocks = []
        for kind, size, copies in kinds:
            if kind == "stochastic":
                block = random_stochastic(size, 0.3, seed).entries
            elif kind == "cyclic":
                block = cyclic(size)
            elif kind == "defective":
                block = two_species_matrix(0.05 * size, -0.05 * size).entries
            else:
                block = np.eye(size)
            blocks += [block] * copies
        assert_matches_pairwise(block_diagonal(blocks))

    def test_identity_needs_no_svd(self, monkeypatch):
        # Deterministic cost guard: the pair loop ran 44,850 SVDs on eye(300).
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        summary = eigendecompose(EvolutionMatrix(np.eye(300)))
        assert summary.leading_degenerate and not summary.defective
        assert len(calls) == 0


def closed_class(a, p, q):
    """``[[1 - a*p, a*q], [a*p, 1 - a*q]]``: eigenvalues 1 and ``1 - a*(p + q)``."""
    return np.array([[1 - a * p, a * q], [a * p, 1 - a * q]])


class TestScaleRelativeTolerance:
    """Eigenvalues coincide within ``EIG_TOL * max(1, ‖M‖₁)``, whatever the matrix's scale."""

    SCALES = [1e-3, 1.0, 1e3, 1e6, 1e7, 3e7, 1e8]
    SHARES = st.floats(min_value=0.2, max_value=1.0)

    @given(st.sampled_from(SCALES), SHARES, SHARES, SHARES, SHARES)
    @settings(max_examples=150, deadline=None)
    def test_exactly_degenerate_leading_pair_is_flagged(self, a, p1, q1, p2, q2):
        # Two closed classes: eigenvalue 1 twice, and no unique stationary mix.
        matrix = block_diagonal([closed_class(a, p1, q1), closed_class(a, p2, q2)])
        summary = eigendecompose(matrix)
        assert summary.leading_degenerate
        assert summary.stationary is None
        assert_left_vectors_pair(summary)

    @given(st.sampled_from(SCALES), SHARES, SHARES, SHARES, SHARES)
    @settings(max_examples=150, deadline=None)
    def test_separated_leading_pair_is_not_flagged(self, a, p1, q1, p2, q2):
        # The second class leaks eps of each column into the first, so its
        # eigenvalue 1 moves to 1 - eps. eps is a power of two, so that the
        # columns still sum to 1 within rounding at every scale.
        eps = 2.0 ** np.ceil(np.log2(2e-6 * (1 + 2 * a)))
        entries = np.zeros((4, 4))
        entries[:2, :2] = closed_class(a, p1, q1)
        entries[2:, 2:] = closed_class(a, p2, q2) - eps * np.eye(2)
        entries[:2, 2:] = eps * np.eye(2)
        assert eps >= 1e-6 * np.linalg.norm(entries, 1)
        assert not eigendecompose(EvolutionMatrix(entries)).leading_degenerate


class TestDependentRightVectors:
    """``left_vectors`` is ``inv(right.T)``, or None when that inverse does not exist."""

    def test_singular_jordan_pair(self):
        # [[-1.5, -2.5], [2.5, 3.5]]: eig returns two exactly parallel right vectors.
        summary = eigendecompose(two_species_matrix(2.5, -2.5))
        assert summary.left_vectors is None
        assert summary.defective and summary.leading_degenerate
        with pytest.raises(NumericalError, match="^the right eigenvectors are linearly dependent$"):
            check_biorthogonality(summary)

    @pytest.mark.parametrize("failure", ["raises", "non-finite"])
    def test_failed_inverse_with_distinct_eigenvalues(self, failure, monkeypatch, tmp_path):
        inv = np.linalg.inv

        def failing(a):
            if failure == "raises":
                raise np.linalg.LinAlgError
            result = inv(a)
            result[-1, -1] = np.inf
            return result

        monkeypatch.setattr(np.linalg, "inv", failing)
        matrix = random_stochastic(5, 0.3, 1)
        summary = eigendecompose(matrix)
        assert summary.left_vectors is None
        with pytest.raises(NumericalError, match="^the right eigenvectors are linearly dependent$"):
            check_biorthogonality(summary)
        scenario, out = tmp_path / "in.json", tmp_path / "s.json"
        scenario.write_text(json.dumps({"matrix": {"entries": matrix.entries.tolist()}, "initial": [1] * 5}))
        assert main(["spectrum", "--scenario", str(scenario), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["biorthogonality"] == {"error": "the right eigenvectors are linearly dependent"}


class TestStationaryByIteration:
    def test_two_species(self):
        result = stationary_by_iteration(two_species_matrix(0.1, 0.2), tol=1e-12)
        assert np.max(np.abs(result.values - [2 / 3, 1 / 3])) < 1e-10

    def test_symmetric_couplings(self):
        result = stationary_by_iteration(two_species_matrix(0.3, 0.3))
        assert_allclose(result.values, [0.5, 0.5], atol=1e-10)

    def test_periodic_chain_does_not_converge(self):
        with pytest.raises(NumericalError, match="columns did not agree within 1e-10 after 30 squarings"):
            stationary_by_iteration(SWAP, tol=1e-10, max_iter=30)

    def test_requires_stochastic(self):
        with pytest.raises(ValidationError, match="^iterated averaging requires a stochastic matrix$"):
            stationary_by_iteration(two_species_matrix(0.1, -0.05))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10, True])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValidationError, match="tol must be a finite nonnegative number"):
            stationary_by_iteration(two_species_matrix(0.1, 0.2), tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, True, 0])
    def test_bad_max_iter_rejected(self, max_iter):
        with pytest.raises(ValidationError, match="max_iter must be"):
            stationary_by_iteration(two_species_matrix(0.1, 0.2), max_iter=max_iter)


class TestBiorthogonality:
    """``check_biorthogonality`` returns κ₁ of the stored right vectors."""

    def test_two_species_exact(self):
        # Columns (2/3, 1/3) and (1, -1): ‖R‖₁ = 2; R⁻¹ has rows (1, 1) and
        # (1/3, -2/3), so ‖R⁻¹‖₁ = 5/3.
        summary = eigendecompose(two_species_matrix(0.1, 0.2))
        assert check_biorthogonality(summary) == pytest.approx(10 / 3, rel=1e-14)

    def test_random_stochastic_is_well_conditioned(self):
        summary = eigendecompose(random_stochastic(5, 0.2, seed=3))
        assert 1.0 <= check_biorthogonality(summary) < 1e2

    def test_ill_conditioned_draw(self):
        # Its mode expansion is off by 9.4e-6, yet no two eigenvalues coincide.
        summary = eigendecompose(random_competitive(3, 0.5, 0.5, 539))
        assert check_biorthogonality(summary) == pytest.approx(3.1e6, rel=0.01)

    @pytest.mark.parametrize("a", [0.1, 0.2, 0.3, -0.1])
    def test_split_jordan_pair(self, a):
        # eig splits the double eigenvalue 1 into two; the basis is singular
        # to within rounding, so defective, and its leading vector is no
        # population (at a = 0.2 it is complex).
        summary = eigendecompose(two_species_matrix(a, -a))
        assert summary.defective
        assert summary.stationary is None
        assert check_biorthogonality(summary) > DEFECTIVE_CONDITION

    def test_identity_pairs_exactly(self):
        # Eigenvalue 1 three times: the left vectors still invert the right ones.
        summary = eigendecompose(EvolutionMatrix(np.eye(3)))
        assert np.array_equal(summary.left_vectors @ summary.right_vectors.T, np.eye(3))
        assert check_biorthogonality(summary) == 1.0


class TestSpectralInvariants:
    """Structural facts forced by unit column sums."""

    def test_unit_eigenvalue_always_present(self):
        for seed in range(30):
            matrix = random_competitive(2 + seed % 5, 0.15, 0.6, seed)
            eigenvalues = eigendecompose(matrix).eigenvalues
            assert np.min(np.abs(eigenvalues - 1.0)) < 1e-9

    def test_transient_modes_sum_to_zero(self):
        for seed in range(20):
            matrix = random_competitive(2 + seed % 5, 0.15, 0.4, seed)
            summary = eigendecompose(matrix)
            for p in range(1, matrix.n):
                if abs(summary.eigenvalues[p] - 1.0) <= 1e-9:
                    continue
                mode = summary.right_vectors[p]  # already max-|component| = 1
                assert abs(np.sum(mode)) < 1e-8

    def test_stochastic_transients_decay(self):
        for seed in range(20):
            matrix = random_stochastic(2 + seed % 5, 0.3, seed)
            eigenvalues = eigendecompose(matrix).eigenvalues
            assert np.all(np.abs(eigenvalues[1:]) < 1.0)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            matrix = random_stochastic(n, 0.3, int(rng.integers(0, 2**31)))
            by_eig = eigendecompose(matrix).stationary.values
            by_iter = stationary_by_iteration(matrix, tol=1e-12, max_iter=64).values
            assert np.max(np.abs(by_eig - by_iter)) < 1e-7

    def test_stochastic_transients_have_negative_component(self):
        for seed in range(20):
            matrix = random_stochastic(3 + seed % 4, 0.3, seed)
            summary = eigendecompose(matrix)
            for p in range(1, matrix.n):
                if abs(summary.eigenvalues[p].imag) > 1e-9:
                    continue  # complex pair: no real representative
                mode = summary.right_vectors[p].real
                assert np.min(mode) < 0


def equivalence_matrices():
    """The draws, identities and edge cases the one-copy ``eigendecompose`` is compared on."""
    cases = []
    for n in (1, 2, 3, 10, 40, 100):
        for seed in (0, 1, 2):
            cases.append(pytest.param(random_stochastic, (n, 0.3, seed), id=f"stochastic-{n}-{seed}"))
            if n > 1:
                for neg in (0.3, 0.7):
                    cases.append(
                        pytest.param(
                            random_competitive, (n, 0.4, neg, seed), id=f"competitive-{n}-{neg}-{seed}"
                        )
                    )
    for n in (1, 2, 50):
        cases.append(pytest.param(lambda n: EvolutionMatrix(np.eye(n)), (n,), id=f"eye-{n}"))
    # alpha + beta = 0: a double eigenvalue 1 with one eigenvector, a Jordan block.
    cases.append(pytest.param(two_species_matrix, (0.05, -0.05), id="jordan"))
    # Eigenvalue 1.00028 beside the pinned 1; right vectors with condition number 3.4e6.
    cases.append(pytest.param(random_competitive, (3, 0.5, 0.5, 539), id="ill-conditioned"))
    return cases


class TestOneCopyEquivalence:
    """The in-place, one-copy ``eigendecompose`` gives the per-vector loop's bytes."""

    @pytest.mark.parametrize("build, args", equivalence_matrices())
    def test_same_bytes_as_per_vector_loop(self, build, args):
        matrix = build(*args)
        actual, expected = eigendecompose(matrix), reference_eigendecompose(matrix)
        for name in ("eigenvalues", "right_vectors", "left_vectors"):
            assert_same_bytes(getattr(actual, name), getattr(expected, name))
        if expected.stationary is None:
            assert actual.stationary is None
        else:
            assert_same_bytes(actual.stationary.values, expected.stationary.values)
        for name in ("lambda2_modulus", "leading_degenerate", "stationary_mixed_sign", "defective"):
            assert getattr(actual, name) == getattr(expected, name), name
        outcome = biorthogonality_outcome(check_biorthogonality, actual)
        assert outcome == biorthogonality_outcome(reference_basis_condition, expected)

    def test_arrays_are_read_only(self):
        summary = eigendecompose(random_competitive(10, 0.4, 0.5, 1))
        for array in (summary.eigenvalues, summary.right_vectors, summary.left_vectors):
            assert not array.flags.writeable
