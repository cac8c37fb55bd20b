import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evosum import (
    CONSTRUCTION_TOL,
    EvolutionMatrix,
    PopulationVector,
    SimulationConfig,
    elimination_time_scan,
    evolve,
    make_population,
    random_competitive,
    random_stochastic,
    scenario_from_dict,
    stationary_by_iteration,
    two_species_matrix,
)
from evosum import core
from evosum.errors import NumericalError, ValidationError


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
        with pytest.raises(ValidationError, match="abundance entry 1 is negative"):
            make_population([0.5, -0.1])

    def test_zero_total_rejected(self):
        with pytest.raises(ValidationError, match="total abundance must be positive"):
            make_population([0.0, 0.0])

    @pytest.mark.parametrize("raw", [[1e308, 1e308], [1.7e308, 0.0, 1.7e308]])
    def test_overflowing_total_rejected(self, raw):
        # The suite turns warnings into errors, so an overflow warning fails this test.
        with pytest.raises(ValidationError, match=r"^total abundance is not finite \(inf\)$"):
            make_population(raw)

    def test_large_finite_total_accepted(self):
        assert_allclose(make_population([1e308, 7e307]).values, [1e308 / 1.7e308, 7e307 / 1.7e308])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="expected a nonempty 1-D vector of abundances"):
            make_population([])

    def test_result_is_readonly(self):
        pop = make_population([1, 3])
        with pytest.raises(ValueError):
            pop.values[0] = 0.7


class TestPopulationVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="populations sum to 1.1"):
            PopulationVector(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="population entry 0 is negative"):
            PopulationVector(np.array([-0.1, 1.1]))

    def test_overflowing_total_rejected_without_a_warning(self):
        # The suite turns warnings into errors: a warning here would not be the message.
        with pytest.raises(ValidationError, match="populations sum to inf"):
            PopulationVector(np.array([1e308, 1e308]))


def from_generator(generator) -> EvolutionMatrix:
    """The matrix ``I + C`` of a scenario whose matrix is the generator ``C``."""
    generator = np.asarray(generator, dtype=float)
    spec = {"matrix": {"generator": generator.tolist()}, "initial": [1] * len(generator)}
    return scenario_from_dict(spec).matrix


class TestGenerator:
    def test_zero_generator_gives_identity(self):
        assert_allclose(from_generator(np.zeros((2, 2))).entries, np.eye(2))

    def test_stochastic_coupling_form(self):
        assert_allclose(from_generator([[-0.1, 0.2], [0.1, -0.2]]).entries, [[0.9, 0.2], [0.1, 0.8]])

    def test_competitive_coupling_form(self):
        matrix = from_generator([[-0.1, -0.05], [0.1, 0.05]])
        assert_allclose(matrix.entries, [[0.9, -0.05], [0.1, 1.05]])

    def test_leaky_generator_rejected(self):
        with pytest.raises(ValidationError, match="column 0 of generator sums to"):
            from_generator([[-0.1, 0.0], [0.2, 0.0]])

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_recovers_generator(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-0.2, 0.2, size=(n, n))
        raw -= raw.mean(axis=0)  # zero column sums
        matrix = from_generator(raw)
        assert np.max(np.abs((matrix.entries - np.eye(n)) - raw)) < 1e-15


class TestEvolutionMatrix:
    def test_bad_column_sum_names_column(self):
        with pytest.raises(ValidationError, match="column 1 of evolution matrix sums to"):
            EvolutionMatrix([[1.0, 0.1], [0.0, 0.8]])

    def test_non_square_rejected(self):
        # The (2, 2, 2) stack passes the column-sum check, which takes stacks.
        for entries in [np.ones((2, 3)) / 2, np.full((2, 2, 2), 0.5), np.ones(2), np.zeros((0, 0))]:
            with pytest.raises(ValidationError, match="evolution matrix must be a nonempty square matrix"):
                EvolutionMatrix(entries)

    def test_layout_does_not_change_the_run(self):
        # A matvec's bits follow the matrix's memory layout, so entries are stored C-ordered.
        entries = random_competitive(30, 0.3, 0.5, 0).entries
        phi = make_population(np.linspace(1, 2, 30))
        (c_run,), (f_run,) = (
            list(evolve(EvolutionMatrix(layout), phi, SimulationConfig(max_steps=300)))
            for layout in (entries, np.asfortranarray(entries))
        )
        assert np.array_equal(c_run[1], f_run[1]) and c_run[2] == f_run[2]

    def test_carries_only_entries(self):
        # Time is the step count: no step size is stored, checked or accepted.
        assert [field.name for field in dataclasses.fields(EvolutionMatrix)] == ["entries"]
        with pytest.raises(TypeError):
            EvolutionMatrix(np.eye(2), dt=1.0)

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
    """Stochastic (every entry in [0, 1]) or competitive, as ``stationary_by_iteration`` decides it."""

    NOT_STOCHASTIC = "^iterated averaging requires a stochastic matrix$"

    def test_stochastic(self):
        matrix = EvolutionMatrix([[0.9, 0.2], [0.1, 0.8]])
        assert_allclose(stationary_by_iteration(matrix).values, [2 / 3, 1 / 3])
        assert core.negative_offdiag_count(matrix.entries) == 0

    def test_competitive_counts_negatives(self):
        matrix = EvolutionMatrix([[0.9, -0.05], [0.1, 1.05]])
        with pytest.raises(ValidationError, match=self.NOT_STOCHASTIC):
            stationary_by_iteration(matrix)
        assert core.negative_offdiag_count(matrix.entries) == 1

    def test_identity_is_stochastic(self):
        # Accepted as stochastic; its columns never agree, so the budget runs out.
        matrix = EvolutionMatrix(np.eye(3))
        with pytest.raises(NumericalError, match="columns did not agree"):
            stationary_by_iteration(matrix)
        assert core.negative_offdiag_count(matrix.entries) == 0

    @pytest.mark.parametrize(
        "entry, count", [(-core.ZERO_TOL, 0), (np.nextafter(-core.ZERO_TOL, -1.0), 1)]
    )
    def test_negative_count_starts_below_zero_tol(self, entry, count):
        matrix = EvolutionMatrix([[1.0, entry], [0.0, 1.0 - entry]])
        assert matrix.entries[0, 1] == entry
        assert core.negative_offdiag_count(matrix.entries) == count

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
        matrix = two_species_matrix(alpha, beta)
        if 0 <= alpha <= 1 and 0 <= beta <= 1:
            try:
                stationary_by_iteration(matrix)
            except NumericalError:
                pass  # stochastic, but its columns never agree (the identity, the swap)
        else:
            with pytest.raises(ValidationError, match=self.NOT_STOCHASTIC):
                stationary_by_iteration(matrix)


class TestTwoSpeciesMatrix:
    def test_standard_form(self):
        assert_allclose(two_species_matrix(0.1, 0.2).entries, [[0.9, 0.2], [0.1, 0.8]])

    def test_zero_couplings_give_identity(self):
        assert_allclose(two_species_matrix(0.0, 0.0).entries, np.eye(2))

    def test_negative_couplings(self):
        assert_allclose(
            two_species_matrix(-0.05, -0.05).entries, [[1.05, -0.05], [-0.05, 1.05]]
        )

    @pytest.mark.parametrize("alpha, beta", [(0.02, -0.01), (0.0, -0.5), (-1e-300, 1e10)])
    def test_family_has_the_bits_of_one_matrix_per_scale(self, alpha, beta):
        # The products and differences are Python float arithmetic, elementwise:
        # huge products overflow to inf and inf * 0 is NaN, with no warning.
        scales = [0.0, -0.0, 1e-300, 1e300, np.inf, np.nan]
        family = core._two_species_family(alpha, beta, scales)
        assert family.shape == (len(scales), 2, 2)
        formula = [[[1.0 - alpha * c, beta * c], [alpha * c, 1.0 - beta * c]] for c in scales]
        assert family.tobytes() == np.array(formula).tobytes()
        for c, entries in zip(scales, family):
            try:
                matrix = two_species_matrix(alpha * c, beta * c)
            except ValidationError:
                continue
            assert entries.tobytes() == matrix.entries.tobytes()


class TestRandomStochastic:
    def test_single_species(self):
        assert_allclose(random_stochastic(1, 0.1, seed=0).entries, [[1.0]])

    def test_postconditions(self):
        matrix = random_stochastic(3, 0.1, seed=42)
        assert np.all((matrix.entries >= 0) & (matrix.entries <= 1))
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
        with pytest.raises(ValidationError, match=r"coupling_scale must lie in \(0, 1\), got 1.5"):
            random_stochastic(3, 1.5, seed=0)
        with pytest.raises(ValidationError, match=r"coupling_scale must lie in \(0, 1\), got 0.0"):
            random_stochastic(3, 0.0, seed=0)
        with pytest.raises(ValidationError, match=r"coupling_scale must lie in \(0, 1\), got 2.0"):
            random_stochastic(1, 2.0, seed=1)
        # The one-species draw checks the range itself, with both ends open.
        with pytest.raises(ValidationError, match=r"coupling_scale must lie in \(0, 1\), got 0.0"):
            random_stochastic(1, 0.0, 0)
        with pytest.raises(ValidationError, match=r"coupling_scale must lie in \(0, 1\), got 1.0"):
            random_stochastic(1, 1.0, 0)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValidationError, match=re.escape(f"species count must be an integer, got {n!r}")):
            random_stochastic(n, 0.5, seed=1)

    @pytest.mark.parametrize("scale", ["0.5", None, True, float("nan")])
    @pytest.mark.parametrize("n", [1, 3])
    def test_non_real_scale_rejected(self, n, scale):
        # A string or None was a bare TypeError; True passed the range test as 1.
        with pytest.raises(ValidationError, match=re.escape(f"coupling_scale must be finite, got {scale!r}")):
            random_stochastic(n, scale, seed=1)

    def test_numpy_integer_size_accepted(self):
        assert random_stochastic(np.int64(3), 0.5, seed=1).n == 3

    @pytest.mark.parametrize(
        "seed, message",
        [
            (0.5, "seed must be an integer, got 0.5"),
            (True, "seed must be an integer, got True"),
            (None, "seed must be an integer, got None"),
            (-1, "seed must be at least 0"),
        ],
    )
    @pytest.mark.parametrize("n", [1, 3])
    def test_bad_seed_rejected(self, n, seed, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            random_stochastic(n, 0.5, seed)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(
            random_stochastic(4, 0.5, np.int64(2)).entries,
            random_stochastic(4, 0.5, 2).entries,
        )


class TestRandomCompetitive:
    def test_full_negative_fraction(self):
        matrix = random_competitive(2, 0.05, 1.0, seed=5)
        off = matrix.entries[~np.eye(2, dtype=bool)]
        assert np.all(off < 0)
        assert_allclose(matrix.entries.sum(axis=0), 1.0, atol=1e-12)

    @given(
        n=st.sampled_from([2, 3, 5, 20, 50, 200]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.05, 0.3, 0.5, 0.9]) | st.floats(1e-6, 1 - 1e-6),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_fraction_is_stochastic(self, n, seed, scale):
        matrix = random_competitive(n, scale, 0.0, seed)
        assert matrix.entries.tobytes() == random_stochastic(n, scale, seed).entries.tobytes()
        assert np.all((matrix.entries > 0) & (matrix.entries < 1))

    def test_deterministic_for_seed(self):
        first = random_competitive(4, 0.1, 0.5, seed=7)
        second = random_competitive(4, 0.1, 0.5, seed=7)
        assert np.array_equal(first.entries, second.entries)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError, match="competitive draws need at least 2 species"):
            random_competitive(1, 0.1, 0.5, seed=0)
        with pytest.raises(ValidationError, match=r"neg_fraction must lie in \[0, 1\], got 1.5"):
            random_competitive(3, 0.1, 1.5, seed=0)
        with pytest.raises(ValidationError, match=r"coupling_scale must lie in \(0, 1\), got 0.0"):
            random_competitive(3, 0.0, 0.5, seed=0)
        with pytest.raises(ValidationError, match=r"coupling_scale must lie in \(0, 1\), got 1.0"):
            random_competitive(3, 1.0, 0.5, 0)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValidationError, match=f"species count must be an integer, got {n!r}"):
            random_competitive(n, 0.5, 0.5, seed=1)

    @pytest.mark.parametrize(
        "scale, neg_fraction, message",
        [
            ("0.5", 0.5, "coupling_scale must be finite, got '0.5'"),
            (None, 0.5, "coupling_scale must be finite, got None"),
            (0.5, None, "neg_fraction must be finite, got None"),
            (0.5, "0.5", "neg_fraction must be finite, got '0.5'"),
            (0.5, True, "neg_fraction must be finite, got True"),
            (0.5, float("nan"), "neg_fraction must be finite, got nan"),
        ],
    )
    def test_non_real_arguments_rejected(self, scale, neg_fraction, message):
        # None and strings were a bare TypeError; neg_fraction True drew as 1.
        with pytest.raises(ValidationError, match=re.escape(message)):
            random_competitive(3, scale, neg_fraction, seed=1)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (0.5, "seed must be an integer, got 0.5"),
            (True, "seed must be an integer, got True"),
            (None, "seed must be an integer, got None"),
            (-1, "seed must be at least 0"),
        ],
    )
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            random_competitive(3, 0.5, 0.5, seed)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(
            random_competitive(4, 0.5, 0.5, np.int64(2)).entries,
            random_competitive(4, 0.5, 0.5, 2).entries,
        )


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
            from_generator(self._poison(np.zeros((n, n)), index, bad))

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


@pytest.mark.parametrize(
    "build, noun, entries",
    [
        (EvolutionMatrix, "evolution matrix", [[1 + 1j, 0], [0, 1]]),
        (PopulationVector, "population", [0.5 + 1j, 0.5]),
        (make_population, "abundance", [1 + 1j, 1]),
        (
            lambda family: elimination_time_scan(family, make_population([1, 1])),
            "matrix family",
            [[[1 + 1j, 0], [0, 1]]],
        ),
    ],
    ids=["matrix", "population", "abundances", "family"],
)
def test_complex_entries_refused(build, noun, entries):
    # Each real part is valid: a float conversion would keep it and drop the rest.
    with pytest.raises(ValidationError, match=f"^{noun} entries must be real, got dtype complex128$"):
        build(np.array(entries))


def reference_check_matrix(entries, column_sum, what):
    """The construction check of one matrix as a fixed sequence: finite entries, then column sums.

    ``core._check_matrix`` tests finiteness through the column sums and
    takes stacks; on one matrix it must accept the same matrices and raise
    the same messages and warnings.
    """
    finite = np.isfinite(entries)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise ValidationError(f"{what} entry ({i}, {j}) is not finite ({float(entries[i, j])})")
    with np.errstate(over="ignore"):  # an overflowing column is reported as summing to inf
        sums = entries.sum(axis=0)
    dev = np.abs(sums - column_sum)
    if np.any(dev > CONSTRUCTION_TOL):
        j = int(np.argmax(dev))
        raise ValidationError(
            f"column {j} of {what} sums to {float(sums[j])!r}, "
            f"expected {column_sum} within {CONSTRUCTION_TOL}"
        )


def check_outcome(check, entries, column_sum, what):
    """``(error message or None, warning messages)`` of one check call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check(entries, column_sum, what)
            error = None
        except ValidationError as exc:
            error = str(exc)
    return error, [str(w.message) for w in caught]


@st.composite
def checked_matrices(draw, n=None, column_sum=None):
    """A square matrix with column sums 1 or 0, then poisoned, inflated or nudged."""
    n = draw(st.integers(1, 5)) if n is None else n
    column_sum = draw(st.sampled_from([1.0, 0.0])) if column_sum is None else column_sum
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.uniform(-0.5, 0.5, size=(n, n))
    entries[np.diag_indices(n)] += column_sum - entries.sum(axis=0)
    positions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    changes = st.one_of(
        st.tuples(st.just("set"), positions, st.sampled_from([np.nan, np.inf, -np.inf])),
        st.tuples(
            st.just("set"),
            positions,
            st.floats(1e307, 1.7976931348623157e308) | st.floats(-1.7976931348623157e308, -1e307),
        ),
        st.tuples(st.just("add"), positions, st.sampled_from([0.5e-12, -0.5e-12, 2e-12, -2e-12])),
    )
    for kind, (i, j), value in draw(st.lists(changes, max_size=4)):
        if kind == "set":
            entries[i, j] = value
        else:
            entries[i, j] += value
    return entries, column_sum


class TestOneSumCheck:
    @given(checked_matrices())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_reference(self, case):
        entries, column_sum = case
        what = "evolution matrix" if column_sum == 1.0 else "generator"
        expected = check_outcome(reference_check_matrix, entries, column_sum, what)
        assert check_outcome(core._check_matrix, entries, column_sum, what) == expected

    @given(st.integers(1, 5), st.sampled_from([1.0, 0.0]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_stack_reports_its_first_failing_member(self, n, column_sum, data):
        members = data.draw(st.lists(checked_matrices(n, column_sum), min_size=1, max_size=4))
        stack = np.stack([entries for entries, _ in members])
        outcomes = [check_outcome(reference_check_matrix, m, column_sum, "generator") for m in stack]
        expected = next((o for o in outcomes if o[0] is not None), (None, []))
        assert check_outcome(core._check_matrix, stack, column_sum, "generator") == expected

    @pytest.mark.parametrize(
        "entries, error, warned",
        [
            ([[np.inf, 0.0], [-np.inf, 1.0]], "evolution matrix entry (0, 0) is not finite (inf)", []),
            ([[1.7e308, 0.0], [1.7e308, 1.0]], "column 0 of evolution matrix sums to inf", []),
            ([[1.7e308, 0.0], [-1.7e308, 1.0]], "column 0 of evolution matrix sums to 0.0", []),
            ([[1.0 + 2e-12, 0.0], [0.0, 1.0]], "column 0 of evolution matrix sums to", []),
            ([[1.0 + 0.5e-12, 0.0], [0.0, 1.0]], None, []),
        ],
        ids=["inf-minus-inf", "overflow", "cancelling", "off-by-2e-12", "off-by-0.5e-12"],
    )
    def test_fixed_cases(self, entries, error, warned):
        entries = np.array(entries)
        outcome = check_outcome(core._check_matrix, entries, 1.0, "evolution matrix")
        assert outcome == check_outcome(reference_check_matrix, entries, 1.0, "evolution matrix")
        message, caught = outcome
        assert (message is None) == (error is None)
        assert error is None or message.startswith(error)
        assert [w.split()[0] for w in caught] == warned
