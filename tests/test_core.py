import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evosum import (
    EvolutionMatrix,
    GeneratorMatrix,
    MatrixKind,
    PopulationVector,
    classify_matrix,
    make_population,
    matrix_from_generator,
    random_competitive,
    random_stochastic,
    two_species_matrix,
)
from evosum.errors import (
    BadFractionError,
    BadGeneratorError,
    BadScaleError,
    ConservationError,
    DimensionMismatchError,
    NegativeEntryError,
    ValidationError,
    ZeroTotalError,
)


class TestMakePopulation:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ([1, 1], [0.5, 0.5]),
            ([0.9, 0.1], [0.9, 0.1]),
            ([2, 0, 6], [0.25, 0.0, 0.75]),
        ],
    )
    def test_normalizes(self, raw, expected):
        assert_allclose(make_population(raw).values, expected, atol=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            make_population([0.5, -0.1])

    def test_zero_total_rejected(self):
        with pytest.raises(ZeroTotalError):
            make_population([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            make_population([])

    def test_result_is_readonly(self):
        pop = make_population([1, 3])
        with pytest.raises(ValueError):
            pop.values[0] = 0.7


class TestPopulationVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ConservationError):
            PopulationVector(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntryError):
            PopulationVector(np.array([-0.1, 1.1]))


class TestGenerator:
    def test_zero_generator_gives_identity(self):
        gen = GeneratorMatrix(np.zeros((2, 2)))
        assert_allclose(matrix_from_generator(gen).entries, np.eye(2))

    def test_stochastic_coupling_form(self):
        gen = GeneratorMatrix([[-0.1, 0.2], [0.1, -0.2]])
        assert_allclose(matrix_from_generator(gen).entries, [[0.9, 0.2], [0.1, 0.8]])

    def test_competitive_coupling_form(self):
        gen = GeneratorMatrix([[-0.1, -0.05], [0.1, 0.05]])
        assert_allclose(matrix_from_generator(gen).entries, [[0.9, -0.05], [0.1, 1.05]])

    def test_leaky_generator_rejected(self):
        with pytest.raises(BadGeneratorError):
            GeneratorMatrix([[-0.1, 0.0], [0.2, 0.0]])

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_recovers_generator(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-0.2, 0.2, size=(n, n))
        raw -= raw.mean(axis=0)  # zero column sums
        gen = GeneratorMatrix(raw)
        matrix = matrix_from_generator(gen)
        assert np.max(np.abs((matrix.entries - np.eye(n)) - gen.entries)) < 1e-15


class TestEvolutionMatrix:
    def test_bad_column_sum_names_column(self):
        with pytest.raises(ConservationError, match="column 1"):
            EvolutionMatrix([[1.0, 0.1], [0.0, 0.8]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            EvolutionMatrix(np.ones((2, 3)) / 2)

    @pytest.mark.parametrize("cls", [EvolutionMatrix, GeneratorMatrix])
    def test_carries_only_entries(self, cls):
        # Time is the step count: no step size is stored, checked or accepted.
        assert [field.name for field in dataclasses.fields(cls)] == ["entries"]
        with pytest.raises(TypeError):
            cls(np.eye(2) if cls is EvolutionMatrix else np.zeros((2, 2)), dt=1.0)

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_closed_under_products(self, n, seed):
        matrix = random_competitive(n, 0.15, 0.5, seed)
        squared = matrix.entries @ matrix.entries
        tenth = np.linalg.matrix_power(matrix.entries, 10)
        assert np.max(np.abs(squared.sum(axis=0) - 1.0)) < 1e-9
        assert np.max(np.abs(tenth.sum(axis=0) - 1.0)) < 1e-9


class TestClassify:
    def test_stochastic(self):
        result = classify_matrix(EvolutionMatrix([[0.9, 0.2], [0.1, 0.8]]))
        assert result.kind is MatrixKind.STOCHASTIC
        assert result.negative_offdiag_count == 0

    def test_competitive_counts_negatives(self):
        result = classify_matrix(EvolutionMatrix([[0.9, -0.05], [0.1, 1.05]]))
        assert result.kind is MatrixKind.COMPETITIVE
        assert result.negative_offdiag_count == 1

    def test_identity_is_stochastic(self):
        result = classify_matrix(EvolutionMatrix(np.eye(3)))
        assert result.kind is MatrixKind.STOCHASTIC
        assert result.negative_offdiag_count == 0

    @given(
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=-0.5, max_value=1.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_species_stochastic_iff_couplings_in_unit_interval(self, alpha, beta):
        # Stay clear of the tolerance band around the boundary.
        for x in (alpha, beta):
            if min(abs(x), abs(x - 1.0)) < 1e-9:
                return
        kind = classify_matrix(two_species_matrix(alpha, beta)).kind
        expected = MatrixKind.STOCHASTIC if 0 <= alpha <= 1 and 0 <= beta <= 1 else MatrixKind.COMPETITIVE
        assert kind is expected


class TestTwoSpeciesMatrix:
    def test_standard_form(self):
        assert_allclose(two_species_matrix(0.1, 0.2).entries, [[0.9, 0.2], [0.1, 0.8]])

    def test_zero_couplings_give_identity(self):
        assert_allclose(two_species_matrix(0.0, 0.0).entries, np.eye(2))

    def test_negative_couplings(self):
        assert_allclose(
            two_species_matrix(-0.05, -0.05).entries, [[1.05, -0.05], [-0.05, 1.05]]
        )


class TestRandomStochastic:
    def test_single_species(self):
        assert_allclose(random_stochastic(1, 0.1, seed=0).entries, [[1.0]])

    def test_postconditions(self):
        matrix = random_stochastic(3, 0.1, seed=42)
        assert classify_matrix(matrix).kind is MatrixKind.STOCHASTIC
        off = matrix.entries.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off <= 0.1)
        assert np.all(matrix.entries > 0)  # strictly positive draw
        assert_allclose(matrix.entries.sum(axis=0), 1.0, atol=1e-12)

    def test_deterministic_for_seed(self):
        first = random_stochastic(4, 0.2, seed=11)
        second = random_stochastic(4, 0.2, seed=11)
        assert np.array_equal(first.entries, second.entries)

    def test_bad_scale(self):
        with pytest.raises(BadScaleError):
            random_stochastic(3, 1.5, seed=0)
        with pytest.raises(BadScaleError):
            random_stochastic(3, 0.0, seed=0)


class TestRandomCompetitive:
    def test_full_negative_fraction(self):
        matrix = random_competitive(2, 0.05, 1.0, seed=5)
        off = matrix.entries[~np.eye(2, dtype=bool)]
        assert np.all(off < 0)
        assert_allclose(matrix.entries.sum(axis=0), 1.0, atol=1e-12)

    def test_zero_fraction_is_stochastic(self):
        matrix = random_competitive(2, 0.05, 0.0, seed=5)
        assert classify_matrix(matrix).kind is MatrixKind.STOCHASTIC

    def test_deterministic_for_seed(self):
        first = random_competitive(4, 0.1, 0.5, seed=7)
        second = random_competitive(4, 0.1, 0.5, seed=7)
        assert np.array_equal(first.entries, second.entries)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DimensionMismatchError):
            random_competitive(1, 0.1, 0.5, seed=0)
        with pytest.raises(BadFractionError):
            random_competitive(3, 0.1, 1.5, seed=0)
        with pytest.raises(BadScaleError):
            random_competitive(3, 0.0, 0.5, seed=0)


class TestNonFinite:
    @staticmethod
    def _poison(base, index, bad):
        values = np.array(base, dtype=float)
        values.flat[index % values.size] = bad
        return values

    bad_values = st.sampled_from([np.nan, np.inf, -np.inf])

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0), bad_values)
    @settings(max_examples=40, deadline=None)
    def test_evolution_matrix(self, n, index, bad):
        with pytest.raises(ValidationError, match="not finite"):
            EvolutionMatrix(self._poison(np.eye(n), index, bad))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0), bad_values)
    @settings(max_examples=40, deadline=None)
    def test_generator_matrix(self, n, index, bad):
        with pytest.raises(ValidationError, match="not finite"):
            GeneratorMatrix(self._poison(np.zeros((n, n)), index, bad))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0), bad_values)
    @settings(max_examples=40, deadline=None)
    def test_population_vector(self, n, index, bad):
        with pytest.raises(ValidationError, match="not finite"):
            PopulationVector(self._poison(np.full(n, 1.0 / n), index, bad))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0), bad_values)
    @settings(max_examples=40, deadline=None)
    def test_make_population(self, n, index, bad):
        with pytest.raises(ValidationError, match="not finite"):
            make_population(self._poison(np.ones(n), index, bad))
