import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evosum import (
    ActiveSystem,
    Regime,
    SimulationConfig,
    TwoSpeciesParams,
    Winner,
    classify_regime,
    closed_form,
    closed_form_solution,
    crosscheck,
    eigendecompose,
    evolve,
    make_population,
    predict_winner,
    two_species_matrix,
)
from evosum.errors import BadFractionError, DegenerateParamsError

couplings = st.floats(min_value=-0.2, max_value=0.2)
shares = st.floats(min_value=0.0, max_value=1.0)


class TestClosedForm:
    def test_stationary_start_stays_put(self):
        params = TwoSpeciesParams(0.1, 0.2, a=2 / 3)
        for t in (0, 1, 10, 100):
            assert_allclose(closed_form(params, t), [2 / 3, 1 / 3], atol=1e-12)

    def test_reconstructs_start(self):
        assert_allclose(closed_form(TwoSpeciesParams(0.1, 0.2, 0.9), 0), [0.9, 0.1], atol=1e-15)

    def test_one_step_value(self):
        # 0.9*0.9 + 0.2*0.1 = 0.83, verified by direct matrix-vector product
        assert_allclose(closed_form(TwoSpeciesParams(0.1, 0.2, 0.9), 1), [0.83, 0.17], atol=1e-15)

    def test_degenerate_params_rejected(self):
        with pytest.raises(DegenerateParamsError):
            closed_form(TwoSpeciesParams(0.0, 0.0, 0.4), 1)
        with pytest.raises(DegenerateParamsError):
            closed_form_solution(TwoSpeciesParams(0.05, -0.05, 0.4))

    def test_share_out_of_range_rejected(self):
        with pytest.raises(BadFractionError):
            TwoSpeciesParams(0.1, 0.2, a=1.5)

    @given(couplings, couplings, shares)
    @settings(max_examples=150, deadline=None)
    def test_solution_reconstructs_start_exactly(self, alpha, beta, a):
        assume(abs(alpha + beta) > 1e-6)
        coeffs = closed_form_solution(TwoSpeciesParams(alpha, beta, a))
        rebuilt = coeffs.stationary_coeff * np.array([beta, alpha]) + coeffs.transient_coeff * np.array([1.0, -1.0])
        assert np.max(np.abs(rebuilt - [a, 1 - a])) < 1e-12

    @given(couplings, couplings, shares, st.integers(min_value=0, max_value=60))
    @settings(max_examples=150, deadline=None)
    def test_satisfies_the_recurrence(self, alpha, beta, a, t):
        assume(abs(alpha + beta) > 1e-6)
        params = TwoSpeciesParams(alpha, beta, a)
        matrix = two_species_matrix(alpha, beta)
        lhs = closed_form(params, t + 1)
        rhs = matrix.entries @ closed_form(params, t)
        # the mode coefficients scale like 1/(alpha+beta); tolerance follows
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [
            (0.1, 0.2, Regime.COEXISTENCE),
            (0.1, -0.05, Regime.MONOTONE_EXTINCTION),
            (-0.05, 0.1, Regime.MONOTONE_EXTINCTION),
            (-0.05, -0.05, Regime.UNSTABLE_WINNER_TAKES_ALL),
            (0.0, 0.0, Regime.DEGENERATE),
            (0.0, 0.2, Regime.COEXISTENCE),
            (0.0, -0.2, Regime.UNSTABLE_WINNER_TAKES_ALL),
        ],
    )
    def test_sign_table(self, alpha, beta, expected):
        assert classify_regime(alpha, beta) is expected

    @given(couplings, couplings)
    @settings(max_examples=200, deadline=None)
    def test_swap_symmetry(self, alpha, beta):
        assert classify_regime(alpha, beta) is classify_regime(beta, alpha)


class TestPredictWinner:
    def test_coexistence_keeps_both(self):
        assert predict_winner(TwoSpeciesParams(0.1, 0.2, 0.3)) is Winner.BOTH

    def test_monotone_extinction_ignores_start(self):
        for a in (0.1, 0.5, 0.9):
            assert predict_winner(TwoSpeciesParams(0.1, -0.05, a)) is Winner.SPECIES_2
            assert predict_winner(TwoSpeciesParams(-0.05, 0.1, a)) is Winner.SPECIES_1

    def test_unstable_regime_follows_the_start(self):
        assert predict_winner(TwoSpeciesParams(-0.05, -0.05, 0.6)) is Winner.SPECIES_1
        assert predict_winner(TwoSpeciesParams(-0.05, -0.05, 0.4)) is Winner.SPECIES_2

    def test_knife_edge(self):
        assert predict_winner(TwoSpeciesParams(-0.05, -0.05, 0.5)) is Winner.KNIFE_EDGE

    @given(couplings, couplings, shares)
    @settings(max_examples=200, deadline=None)
    def test_winner_swaps_with_species_relabeling(self, alpha, beta, a):
        swap = {
            Winner.SPECIES_1: Winner.SPECIES_2,
            Winner.SPECIES_2: Winner.SPECIES_1,
            Winner.BOTH: Winner.BOTH,
            Winner.KNIFE_EDGE: Winner.KNIFE_EDGE,
        }
        try:
            original = predict_winner(TwoSpeciesParams(alpha, beta, a))
            relabeled = predict_winner(TwoSpeciesParams(beta, alpha, 1.0 - a))
        except DegenerateParamsError:
            assume(False)
        assert relabeled is swap[original]

    def test_agrees_with_engine_across_regimes(self):
        rng = np.random.default_rng(31337)
        checked = 0
        while checked < 200:
            alpha, beta = rng.uniform(-0.15, 0.15, size=2)
            a = rng.uniform(0.05, 0.95)
            if abs(alpha + beta) < 1e-3:
                continue
            params = TwoSpeciesParams(alpha, beta, a)
            regime = classify_regime(alpha, beta)
            if regime is Regime.UNSTABLE_WINNER_TAKES_ALL:
                coeff = closed_form_solution(params).transient_coeff
                if abs(coeff) < 1e-3:  # skip near-knife-edge draws
                    continue
            predicted = predict_winner(params)
            trajectory = evolve(
                ActiveSystem(
                    matrix=two_species_matrix(alpha, beta),
                    populations=make_population([a, 1 - a]),
                ),
                SimulationConfig(max_steps=50_000),
            )
            terminal = trajectory.values[-1]
            if predicted is Winner.BOTH:
                assert not trajectory.events
            elif predicted is Winner.SPECIES_1:
                assert trajectory.events[0].species_id == 1
                assert terminal[0] == pytest.approx(1.0)
            else:
                assert trajectory.events[0].species_id == 0
                assert terminal[1] == pytest.approx(1.0)
            checked += 1


class TestDoomedSpeciesMonotone:
    @given(
        st.floats(min_value=0.005, max_value=0.2),
        st.floats(min_value=-0.2, max_value=-0.005),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_until_zero(self, alpha, beta, a):
        # opposite signs: species 1 carries the negative row entry
        matrix = two_species_matrix(alpha, beta)
        phi = np.array([a, 1.0 - a])
        previous = phi[0]
        for _ in range(2000):
            phi = matrix.entries @ phi
            if phi[0] < 0:
                break
            assert phi[0] < previous
            previous = phi[0]
        else:
            pytest.fail("doomed species never reached zero")


class TestEigenConsistency:
    def test_spectrum_matches_analytic_form(self):
        rng = np.random.default_rng(555)
        done = 0
        while done < 100:
            alpha, beta = rng.uniform(-0.2, 0.2, size=2)
            if abs(alpha + beta) <= 1e-6:
                continue
            summary = eigendecompose(two_species_matrix(alpha, beta))
            assert abs(summary.eigenvalues[1] - (1 - alpha - beta)) < 1e-10
            # proportionality: compare directions at unit max-magnitude
            lead = summary.right_vectors[0]
            lead = lead / lead[np.argmax(np.abs(lead))]
            analytic = np.array([beta, alpha])
            analytic = analytic / analytic[np.argmax(np.abs(analytic))]
            assert np.max(np.abs(lead - analytic)) < 1e-8
            second = summary.right_vectors[1]
            assert np.max(np.abs(second / second[0] - [1.0, -1.0])) < 1e-9
            done += 1


class TestCrosscheck:
    def test_coexistence_lockstep(self):
        report = crosscheck(TwoSpeciesParams(0.1, 0.2, 0.9), steps=200, tol=1e-10)
        assert report.passed
        assert report.steps_compared == 201

    def test_extinction_lockstep_up_to_event(self):
        report = crosscheck(TwoSpeciesParams(0.1, -0.05, 0.5), steps=200, tol=1e-10)
        assert report.passed
        assert report.steps_compared == 8  # event lands in step 7

    def test_stationary_start_is_exact(self):
        report = crosscheck(TwoSpeciesParams(0.1, 0.2, 2 / 3), steps=50, tol=1e-12)
        assert report.passed
