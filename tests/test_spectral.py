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
from evosum import spectral
from evosum.errors import NumericalError, ValidationError

SWAP = EvolutionMatrix([[0.0, 1.0], [1.0, 0.0]])
EIG_TOL = 1e-9
ZERO_TOL = 1e-12


def reference_right_vectors(w, v):
    """Reference: the per-vector loop ``eigendecompose`` ran before it normalized with array ops.

    Takes ``eig``'s ``(w, v)`` and returns the reordered eigenvalues and the
    right vectors as rows: each scaled so its largest-magnitude component
    is 1, and made exactly real when its eigenvalue's imaginary part and
    its own are within ``EIG_TOL``.
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
        if abs(w[p].imag) <= EIG_TOL:
            if np.max(np.abs(vec.imag)) <= EIG_TOL * max(1.0, np.max(np.abs(vec.real))):
                vec = vec.real.astype(complex)
        right[p] = vec
    return w.copy(), right


def reference_eigendecompose(matrix):
    """Reference: ``eigendecompose`` as it was before its one-copy rewrite.

    Right vectors from ``reference_right_vectors``, left vectors copied out
    of ``inv`` into their own array. The degeneracy helpers are shared.
    """
    a = np.asarray(matrix.entries, dtype=float)
    n = matrix.n
    w, right = reference_right_vectors(*np.linalg.eig(a))
    leading_degenerate = int(np.count_nonzero(np.abs(w - 1.0) <= EIG_TOL)) > 1
    defective = spectral._is_defective(right, *spectral._near_equal_pairs(w))
    lead_sum = complex(right[0].sum())
    sum_normalized = abs(lead_sum) > EIG_TOL
    if sum_normalized:
        right[0] = right[0] / lead_sum
    stationary = None
    mixed_sign = not sum_normalized
    if sum_normalized and not leading_degenerate:
        candidate = right[0].real
        if np.min(candidate) >= -ZERO_TOL:
            stationary = PopulationVector(np.maximum(candidate, 0.0))
        else:
            mixed_sign = True
    left = np.empty((n, n), dtype=complex)
    inv = np.linalg.inv(right.T)
    assert np.all(np.isfinite(inv))  # the fallback is compared in its own test
    left[:] = inv
    if sum_normalized:
        left[0] = np.ones(n)
    return SpectralSummary(
        eigenvalues=w,
        right_vectors=right,
        left_vectors=left,
        stationary=stationary,
        lambda2_modulus=float(abs(w[1])) if n >= 2 else 0.0,
        leading_degenerate=leading_degenerate,
        stationary_mixed_sign=mixed_sign,
        defective=defective,
    )


def reference_biorthogonality(summary):
    """Reference: ``check_biorthogonality`` dividing into a second Gram array."""
    p, q = spectral._near_equal_pairs(summary.eigenvalues)
    if p.size:
        raise NumericalError(f"eigenvalues {p[0]} and {q[0]} coincide within {EIG_TOL}")
    gram = summary.left_vectors @ summary.right_vectors.T
    diag = np.diag(gram).copy()
    gram = gram / diag[:, None]
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram))) if summary.eigenvalues.size > 1 else 0.0


def biorthogonality_outcome(check, summary):
    try:
        return check(summary)
    except NumericalError as exc:
        return str(exc)


def assert_same_bytes(actual, expected):
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def pairwise_flags(summary, eig_tol=EIG_TOL):
    """Reference: the per-pair loops ``eigendecompose`` and
    ``check_biorthogonality`` ran before the vectorized pair search.

    Returns ``(leading_degenerate, defective, degenerate_message)``, where
    the message is None when no two eigenvalues coincide within ``eig_tol``.
    """
    w, vectors = summary.eigenvalues, summary.right_vectors
    n = w.size
    leading_degenerate = sum(abs(w[p] - 1.0) <= eig_tol for p in range(n)) > 1
    defective = False
    message = None
    for p in range(n):
        for q in range(p + 1, n):
            if abs(w[p] - w[q]) <= eig_tol:
                if message is None:
                    message = f"eigenvalues {p} and {q} coincide within {eig_tol}"
                pair = np.stack(
                    [
                        vectors[p] / np.linalg.norm(vectors[p]),
                        vectors[q] / np.linalg.norm(vectors[q]),
                    ],
                    axis=1,
                )
                if np.linalg.svd(pair, compute_uv=False)[-1] < 1e-6:
                    defective = True
    return leading_degenerate, defective, message


def assert_matches_pairwise(matrix):
    summary = eigendecompose(matrix)
    leading_degenerate, defective, message = pairwise_flags(summary)
    assert summary.leading_degenerate == leading_degenerate
    assert summary.defective == defective
    if message is None:
        check_biorthogonality(summary)
    else:
        with pytest.raises(NumericalError, match="coincide within") as info:
            check_biorthogonality(summary)
        assert str(info.value) == message
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
        summary = eigendecompose(two_species_matrix(0.1, 0.2))
        assert_allclose(summary.left_vectors[0], np.ones(2), atol=0)

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


class TestDegeneratePairs:
    """The vectorized pair search agrees with the per-pair reference loops."""

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
        # Eigenvalues 1 and about 1 + delta (delta below eig_tol) whose right
        # vectors (1+t, t-1) and (1, -1) are about t apart, so sigma_min of
        # the unit pair is about t / sqrt(2), on both sides of 1e-6.
        delta = 5e-10
        flags = set()
        for t in np.geomspace(3e-7, 1e-5, 9):
            c = delta / (2 * t)
            matrix = EvolutionMatrix(
                [[1 - c * (1 - t), -c * (1 + t)], [c * (1 - t), 1 + c * (1 + t)]]
            )
            flags.add(assert_matches_pairwise(matrix).defective)
        assert flags == {True, False}

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

    def test_left_vector_fallback_matches_greedy_reference(self, monkeypatch):
        # Forces the path taken when the right-vector matrix cannot be inverted.
        # Both blocks have eigenvalue 1, so two candidates are about equally near.
        matrix = block_diagonal([random_stochastic(3, 0.2, seed=5).entries, cyclic(4)])

        def singular(_):
            raise np.linalg.LinAlgError

        monkeypatch.setattr(np.linalg, "inv", singular)
        summary = eigendecompose(matrix)
        wl, vl = np.linalg.eig(matrix.entries.T)
        unused = list(range(matrix.n))
        for p in range(matrix.n):
            q = min(unused, key=lambda q: abs(wl[q] - summary.eigenvalues[p]))
            unused.remove(q)
            u = vl[:, q] / vl[np.argmax(np.abs(vl[:, q])), q]
            pairing = complex(u @ summary.right_vectors[p])
            u = u / pairing if abs(pairing) > EIG_TOL else u
            if p == 0:
                u = np.ones(matrix.n)  # the leading left vector is stored exactly
            assert_allclose(summary.left_vectors[p], u, rtol=0, atol=0)


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
    def test_two_species_exact(self):
        summary = eigendecompose(two_species_matrix(0.1, 0.2))
        assert check_biorthogonality(summary) < 1e-12

    def test_random_stochastic_passes(self):
        summary = eigendecompose(random_stochastic(5, 0.2, seed=3))
        assert check_biorthogonality(summary) < 1e-8

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(NumericalError, match="eigenvalues 0 and 1 coincide within 1e-09"):
            check_biorthogonality(eigendecompose(EvolutionMatrix(np.eye(3))))


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
        assert biorthogonality_outcome(check_biorthogonality, actual) == biorthogonality_outcome(
            reference_biorthogonality, expected
        )

    def test_arrays_are_read_only(self):
        summary = eigendecompose(random_competitive(10, 0.4, 0.5, 1))
        for array in (summary.eigenvalues, summary.right_vectors, summary.left_vectors):
            assert not array.flags.writeable
