import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evosum import (
    ActiveSystem,
    EliminationEvent,
    EvolutionMatrix,
    MatrixKind,
    PopulationVector,
    ScanRow,
    SimulationConfig,
    TerminationReason,
    ToleranceConfig,
    add_species,
    classify_matrix,
    crossing_fraction,
    eigendecompose,
    eliminate_species,
    elimination_time_scan,
    evolve,
    evolve_backward,
    growth_unconstrained,
    make_population,
    random_competitive,
    random_stochastic,
    step,
    two_species_matrix,
)
from evosum import dynamics
from evosum.errors import (
    DimensionMismatchError,
    LastSpeciesError,
    NotExtinctError,
    SingularMatrixError,
    ValidationError,
)


def system_of(matrix: EvolutionMatrix, raw) -> ActiveSystem:
    return ActiveSystem(matrix=matrix, populations=make_population(raw))


def assert_conserved(trajectory, tol=1e-8, floor=-1e-12):
    for step_index, values in zip(trajectory.steps, trajectory.values):
        assert abs(values.sum() - 1.0) < tol, f"step {step_index}"
        assert np.min(values) >= floor, f"step {step_index}"


def brute_first_crossing(entries, phi0, max_steps=100_000):
    """Independent oracle: plain iteration with a sign check, no engine code."""
    phi = np.array(phi0, dtype=float)
    for t in range(max_steps):
        nxt = entries @ phi
        negative = np.flatnonzero(nxt < -1e-12)
        if negative.size:
            taus = phi[negative] / (phi[negative] - nxt[negative])
            k = int(np.argmin(taus))
            return t, int(negative[k]), float(taus[k])
        phi = nxt
    return None


def serial_scan(builder, phi0, scales, config=SimulationConfig()):
    """Reference scan: one full ``evolve`` per scale, keeping only the first event."""
    rows = []
    for scale in scales:
        trajectory = evolve(ActiveSystem(matrix=builder(scale), populations=phi0), config)
        events = trajectory.events
        rows.append(ScanRow(scale=float(scale), steps=events[0].step_index if events else None))
    return rows


def pair_family(alpha: float, beta: float):
    """Builder for ``two_species_matrix(alpha * c, beta * c)``."""
    return lambda c: two_species_matrix(alpha * c, beta * c)


def shrunk_family(base: EvolutionMatrix):
    """Builder for ``I + c * (M - I)``: the generator of ``base`` scaled by c."""
    identity = np.eye(base.n)
    return lambda c: EvolutionMatrix(identity + c * (base.entries - identity))


class TestStep:
    def test_identity_fixes_everything(self):
        assert_allclose(step(EvolutionMatrix(np.eye(2)), [0.3, 0.7]), [0.3, 0.7])

    def test_stationary_point_is_fixed(self):
        result = step(two_species_matrix(0.1, 0.2), [2 / 3, 1 / 3])
        assert_allclose(result, [2 / 3, 1 / 3], atol=1e-15)

    def test_competitive_step_value(self):
        result = step(two_species_matrix(0.1, -0.05), [0.5, 0.5])
        assert_allclose(result, [0.425, 0.575], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            step(two_species_matrix(0.1, 0.2), [0.2, 0.3, 0.5])


class TestCrossingFraction:
    def test_no_crossing(self):
        assert crossing_fraction([0.5, 0.5], [0.6, 0.4]) is None

    def test_midpoint_crossing(self):
        assert crossing_fraction([0.1, 0.9], [-0.1, 1.1]) == (0, 0.5)

    def test_earliest_crossing_wins(self):
        index, tau = crossing_fraction([0.2, 0.2, 0.6], [-0.2, -0.6, 1.8])
        assert index == 1
        assert tau == pytest.approx(0.25)

    def test_tie_breaks_to_lowest_index(self):
        index, _ = crossing_fraction([0.2, 0.2, 0.6], [-0.2, -0.2, 1.4])
        assert index == 0


class TestEliminateSpecies:
    def test_two_species_collapse_is_forced(self):
        system = ActiveSystem(
            matrix=two_species_matrix(0.1, -0.05),
            populations=PopulationVector(np.array([0.0, 1.0])),
        )
        reduced = eliminate_species(system, 0)
        assert_allclose(reduced.matrix.entries, [[1.0]])
        assert_allclose(reduced.populations.values, [1.0])
        assert reduced.alive_ids == (1,)

    def test_fold_preserves_column_sums(self):
        matrix = EvolutionMatrix([[0.9, -0.05], [0.1, 1.05]])
        system = ActiveSystem(
            matrix=matrix, populations=PopulationVector(np.array([0.0, 1.0]))
        )
        reduced = eliminate_species(system, 0)
        assert_allclose(reduced.matrix.entries, [[1.0]], atol=1e-15)

    def test_middle_species_bookkeeping(self):
        matrix = random_stochastic(3, 0.2, seed=1)
        system = ActiveSystem(
            matrix=matrix, populations=PopulationVector(np.array([0.4, 0.0, 0.6]))
        )
        reduced = eliminate_species(system, 1)
        assert reduced.alive_ids == (0, 2)
        assert reduced.universe_size == 3
        assert_allclose(reduced.matrix.entries.sum(axis=0), 1.0, atol=1e-12)
        assert_allclose(reduced.populations.values, [0.4, 0.6])

    def test_not_extinct_rejected(self):
        system = system_of(two_species_matrix(0.1, 0.2), [0.5, 0.5])
        with pytest.raises(NotExtinctError):
            eliminate_species(system, 0)

    def test_last_species_rejected(self):
        system = ActiveSystem(
            matrix=EvolutionMatrix([[1.0]]),
            populations=PopulationVector(np.array([1.0])),
        )
        with pytest.raises(LastSpeciesError):
            eliminate_species(system, 0)

    def test_fold_never_adds_negative_offdiagonals(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            matrix = random_competitive(n, 0.15, 0.5, int(rng.integers(0, 2**31)))
            pops = np.full(n, 1.0 / (n - 1))
            kill = int(rng.integers(0, n))
            pops[kill] = 0.0
            system = ActiveSystem(matrix=matrix, populations=PopulationVector(pops))
            before = classify_matrix(matrix).negative_offdiag_count
            after = classify_matrix(eliminate_species(system, kill).matrix).negative_offdiag_count
            assert after <= before


class TestAddSpecies:
    def test_grow_from_single_species(self):
        base = ActiveSystem(
            matrix=EvolutionMatrix([[1.0]]),
            populations=PopulationVector(np.array([1.0])),
        )
        grown = add_species(base, [0.1], [0.05], self_rate=0.95, seed_fraction=0.01)
        assert_allclose(grown.matrix.entries, [[0.9, 0.05], [0.1, 0.95]])
        assert_allclose(grown.populations.values, [0.99, 0.01])
        assert grown.alive_ids == (0, 1)

    def test_even_seed_split(self):
        base = ActiveSystem(
            matrix=EvolutionMatrix([[1.0]]),
            populations=PopulationVector(np.array([1.0])),
        )
        grown = add_species(base, [0.0], [0.0], self_rate=1.0, seed_fraction=0.5)
        assert_allclose(grown.populations.values, [0.5, 0.5])

    def test_decoupled_insertion_keeps_stochasticity(self):
        base = ActiveSystem(
            matrix=random_stochastic(2, 0.1, seed=3),
            populations=make_population([0.5, 0.5]),
        )
        grown = add_species(base, [0.0, 0.0], [0.0, 0.0], self_rate=1.0, seed_fraction=0.1)
        assert classify_matrix(grown.matrix).kind is MatrixKind.STOCHASTIC
        assert_allclose(grown.matrix.entries[:2, 2], [0.0, 0.0])

    def test_new_id_is_fresh_after_elimination(self):
        matrix = random_stochastic(3, 0.2, seed=1)
        system = ActiveSystem(
            matrix=matrix, populations=PopulationVector(np.array([0.4, 0.0, 0.6]))
        )
        reduced = eliminate_species(system, 1)
        grown = add_species(reduced, [0.0, 0.0], [0.0, 0.0], self_rate=1.0, seed_fraction=0.2)
        assert grown.alive_ids == (0, 2, 3)  # id 1 stays retired

    def test_bad_inputs(self):
        base = ActiveSystem(
            matrix=EvolutionMatrix([[1.0]]),
            populations=PopulationVector(np.array([1.0])),
        )
        from evosum.errors import BadColumnSumError, BadFractionError

        with pytest.raises(BadColumnSumError):
            add_species(base, [0.1], [0.2], self_rate=0.9, seed_fraction=0.1)
        with pytest.raises(BadFractionError):
            add_species(base, [0.1], [0.05], self_rate=0.95, seed_fraction=0.0)


class TestSimulationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": 0},
            {"record_every": 0},
            {"convergence_tol": -1.0},
            {"convergence_tol": np.nan},
        ],
    )
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(ValidationError):
            SimulationConfig(**kwargs)


class TestEvolve:
    def test_coexistence_converges_with_no_events(self):
        trajectory = evolve(
            system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1]),
            SimulationConfig(max_steps=500),
        )
        assert trajectory.events == ()
        assert trajectory.terminated_reason is TerminationReason.CONVERGED
        assert np.max(np.abs(trajectory.values[-1] - [2 / 3, 1 / 3])) < 1e-6
        assert_conserved(trajectory)

    def test_monotone_extinction_has_one_event(self):
        # Frozen from the brute-force oracle: crossing during step 7.
        trajectory = evolve(
            system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000),
        )
        events = trajectory.events
        assert len(events) == 1
        assert events[0].species_id == 0
        assert events[0].step_index == 7
        assert events[0].fraction == pytest.approx(0.9070295859676255, abs=1e-12)
        assert events[0].neg_offdiag_before == 1
        assert events[0].neg_offdiag_after == 0
        assert_allclose(trajectory.values[-1], [0.0, 1.0])
        assert trajectory.terminated_reason is TerminationReason.ALL_BUT_ONE_EXTINCT
        assert_conserved(trajectory)

    def test_engine_agrees_with_crossing_oracle(self):
        matrix = two_species_matrix(0.1, -0.05)
        oracle = brute_first_crossing(matrix.entries, [0.5, 0.5])
        event = evolve(
            system_of(matrix, [0.5, 0.5]), SimulationConfig(max_steps=1000)
        ).events[0]
        assert (event.step_index, event.species_id) == oracle[:2]
        assert event.fraction == pytest.approx(oracle[2], abs=1e-12)

    @pytest.mark.parametrize(
        "a, eliminated, survivor_state",
        [(0.6, 1, [1.0, 0.0]), (0.4, 0, [0.0, 1.0])],
    )
    def test_winner_takes_all_depends_on_start(self, a, eliminated, survivor_state):
        trajectory = evolve(
            system_of(two_species_matrix(-0.05, -0.05), [a, 1 - a]),
            SimulationConfig(max_steps=1000),
        )
        events = trajectory.events
        assert len(events) == 1
        assert events[0].species_id == eliminated
        assert events[0].step_index == 16  # frozen from the brute-force oracle
        assert_allclose(trajectory.values[-1], survivor_state)
        assert_conserved(trajectory)

    def test_already_extinct_start_eliminates_at_step_zero(self):
        trajectory = evolve(
            ActiveSystem(
                matrix=two_species_matrix(0.02, -0.01),
                populations=PopulationVector(np.array([0.0, 1.0])),
            ),
            SimulationConfig(max_steps=100),
        )
        event = trajectory.events[0]
        assert event.step_index == 0
        assert event.fraction == 0.0

    def test_max_steps_stop(self):
        trajectory = evolve(
            system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1]),
            SimulationConfig(max_steps=5, convergence_tol=0.0),
        )
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS
        assert trajectory.steps[-1] == 5

    def test_record_every_thins_snapshots_but_keeps_events(self):
        trajectory = evolve(
            system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000, record_every=50),
        )
        assert np.any(trajectory.event_species >= 0)
        ordinary = trajectory.steps[trajectory.event_species < 0]
        assert np.all(ordinary[:-1] % 50 == 0)

    def test_columns_are_aligned_and_readonly(self):
        trajectory = evolve(
            system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000, record_every=3),
        )
        rows = len(trajectory.steps)
        assert trajectory.values.shape == (rows, 2)
        assert trajectory.fractions.shape == trajectory.event_species.shape == (rows,)
        columns = (
            trajectory.steps,
            trajectory.fractions,
            trajectory.values,
            trajectory.event_species,
        )
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 0

    def test_event_rows_place_extinct_species_at_exact_zero(self):
        trajectory = evolve(
            system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000),
        )
        k = int(np.flatnonzero(trajectory.event_species >= 0)[0])
        assert trajectory.values[k, trajectory.event_species[k]] == 0.0
        assert abs(trajectory.values[k].sum() - 1.0) < 1e-12


class TestStochasticRegime:
    """Properties that hold whenever all transfers are nonnegative."""

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_eliminations_ever(self, n, seed):
        matrix = random_stochastic(n, 0.4, seed)
        start = make_population(np.random.default_rng(seed).random(n) + 1e-3)
        trajectory = evolve(
            ActiveSystem(matrix=matrix, populations=start),
            SimulationConfig(max_steps=300),
        )
        assert trajectory.events == ()
        assert_conserved(trajectory)

    def test_l1_distance_to_stationary_never_increases(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            matrix = random_stochastic(n, 0.3, int(rng.integers(0, 2**31)))
            target = eigendecompose(matrix).stationary.values
            phi = np.array(make_population(rng.random(n) + 1e-3))
            distance = np.abs(phi - target).sum()
            for _ in range(100):
                phi = matrix.entries @ phi
                next_distance = np.abs(phi - target).sum()
                assert next_distance <= distance + 1e-12
                distance = next_distance


class TestCompetitiveCascade:
    def test_cascade_settles_and_matches_reduced_stationary(self):
        rng = np.random.default_rng(12345)
        eliminating_runs = 0
        for _ in range(60):
            n = int(rng.integers(3, 6))
            matrix = random_competitive(n, 0.12, 0.5, int(rng.integers(0, 2**31)))
            start = make_population(rng.random(n) + 0.05)
            trajectory = evolve(
                ActiveSystem(matrix=matrix, populations=start),
                SimulationConfig(max_steps=20_000, convergence_tol=1e-13),
            )
            assert_conserved(trajectory)
            if not trajectory.events:
                continue
            eliminating_runs += 1
            # the cascade must settle rather than run out of budget
            assert trajectory.terminated_reason is not TerminationReason.MAX_STEPS
            final = trajectory.final_system
            if final.n == 1:
                assert_allclose(final.populations.values, [1.0])
                continue
            stationary = eigendecompose(final.matrix).stationary
            assert stationary is not None
            terminal = trajectory.values[-1][list(final.alive_ids)]
            assert np.max(np.abs(terminal - stationary.values)) < 1e-6
        assert eliminating_runs >= 10

    def test_negative_offdiag_counted_once_per_elimination(self, monkeypatch):
        real = dynamics.negative_offdiag_count
        calls = []

        def counted(entries, zero_tol):
            calls.append(entries.shape[0])
            return real(entries, zero_tol)

        monkeypatch.setattr(dynamics, "negative_offdiag_count", counted)
        matrix = random_competitive(30, 0.5, 0.5, 3)
        trajectory = evolve(system_of(matrix, np.ones(30)), SimulationConfig(max_steps=6000))
        events = trajectory.events
        assert len(events) >= 5
        # the initial matrix once, then each folded matrix once
        assert calls == list(range(30, 30 - len(events) - 1, -1))
        assert events[0].neg_offdiag_before == real(matrix.entries)
        for previous, event in zip(events, events[1:]):
            assert event.neg_offdiag_before == previous.neg_offdiag_after
        assert events[-1].neg_offdiag_after == real(trajectory.final_system.matrix.entries)

        calls.clear()
        evolve(system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1]), SimulationConfig())
        assert calls == []

    def test_final_system_reprojects_terminal_row(self):
        matrix = random_competitive(30, 0.5, 0.5, 3)
        trajectory = evolve(system_of(matrix, np.ones(30)), SimulationConfig(max_steps=6000))
        final = trajectory.final_system
        terminal = trajectory.values[-1][list(final.alive_ids)]
        assert final.populations.values.tobytes() == (terminal / terminal.sum()).tobytes()
        # a valid start for further runs
        assert evolve(final, SimulationConfig(max_steps=10)).values.shape[1] == 30

    def test_eliminations_strictly_reduce_dimension(self):
        trajectory = evolve(
            system_of(two_species_matrix(-0.05, -0.05), [0.3, 0.7]),
            SimulationConfig(max_steps=2000),
        )
        assert trajectory.final_system.n == 2 - len(trajectory.events)


class TestGrowthUnconstrained:
    def test_compounding(self):
        assert_allclose(growth_unconstrained([1.1, 1.0], [1.0, 1.0], 2), [1.21, 1.0])

    def test_zero_steps(self):
        assert_allclose(growth_unconstrained([1.1, 0.9], [0.4, 0.6], 0), [0.4, 0.6])

    def test_doubling(self):
        assert_allclose(growth_unconstrained([2.0], [3.0], 10), [3072.0])

    def test_negative_steps_rejected(self):
        with pytest.raises(ValidationError):
            growth_unconstrained([1.0], [1.0], -1)


class TestEvolveBackward:
    def test_permutation_runs_forever(self):
        swap = EvolutionMatrix([[0.0, 1.0], [1.0, 0.0]])
        report = evolve_backward(swap, make_population([0.3, 0.7]), max_steps=50)
        assert report.horizon == 50
        assert report.offender is None

    def test_stationary_start_never_violates(self):
        report = evolve_backward(
            two_species_matrix(0.1, 0.1), make_population([0.5, 0.5]), max_steps=40
        )
        assert report.horizon == 40
        assert report.offender is None

    def test_transient_start_hits_horizon_seven(self):
        # The off-mix deviation 0.1 grows by 1/0.8 per backward step and
        # leaves [0, 1] on the eighth attempt: 0.1 * 1.25**8 > 0.5.
        report = evolve_backward(
            two_species_matrix(0.1, 0.1), make_population([0.6, 0.4]), max_steps=100
        )
        assert report.horizon == 7
        assert report.offender == 0

    def test_round_trip_recovers_start(self):
        matrix = two_species_matrix(0.1, 0.1)
        start = make_population([0.6, 0.4])
        report = evolve_backward(matrix, start, max_steps=100)
        forward = report.endpoint.copy()
        for _ in range(report.horizon):
            forward = matrix.entries @ forward
        assert np.max(np.abs(forward - start.values)) < 1e-7

    def test_singular_matrix_rejected(self):
        flat = EvolutionMatrix([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SingularMatrixError):
            evolve_backward(flat, make_population([0.5, 0.5]), max_steps=5)


class TestEliminationTimeScan:
    def test_inverse_scaling_family(self):
        rows = elimination_time_scan(
            lambda c: two_species_matrix(c, -c / 2),
            make_population([0.5, 0.5]),
            [0.01, 0.02, 0.04],
        )
        assert [(r.scale, r.steps) for r in rows] == [(0.01, 80), (0.02, 40), (0.04, 20)]

    def test_matches_brute_force_oracle(self):
        for c in (0.01, 0.02, 0.04):
            matrix = two_species_matrix(c, -c / 2)
            oracle_steps = brute_first_crossing(matrix.entries, [0.5, 0.5])[0]
            rows = elimination_time_scan(
                lambda c=c: matrix, make_population([0.5, 0.5]), [c]
            )
            assert rows[0].steps == oracle_steps

    def test_coexistence_family_reports_no_elimination(self):
        rows = elimination_time_scan(
            lambda c: two_species_matrix(c, c),
            make_population([0.5, 0.5]),
            [0.01, 0.02],
        )
        assert all(r.steps is None for r in rows)

    def test_extinct_start_counts_zero_steps(self):
        rows = elimination_time_scan(
            lambda c: two_species_matrix(c, -c / 2),
            PopulationVector(np.array([0.0, 1.0])),
            [0.02],
        )
        assert rows[0].steps == 0

    @pytest.mark.parametrize(
        "alpha, beta, start, config, expected",
        [
            (0.1, 0.2, [0.5, 0.5], SimulationConfig(), None),  # coexistence converges
            (0.1, -0.05, [0.0, 1.0], SimulationConfig(), 0),  # extinct start crosses at once
            (0.01, -0.005, [0.5, 0.5], SimulationConfig(max_steps=50), None),  # crosses at 80
            (0.01, -0.005, [0.5, 0.5], SimulationConfig(max_steps=81), 80),
            # The first step both crosses and changes phi by less than convergence_tol.
            (0.1, -1e-5, [0.0, 1.0], SimulationConfig(convergence_tol=1e-3), 0),
            # Species 1 dips below zero at once but stays inside a wide zero_tol for 13 steps.
            (0.05, -1e-5, [0.0, 1.0], SimulationConfig(tolerances=ToleranceConfig(zero_tol=1e-4)), 13),
        ],
        ids=["converged", "extinct-start", "capped", "just-uncapped", "crossed-and-converged", "wide-zero-tol"],
    )
    def test_regimes_match_serial_scan(self, alpha, beta, start, config, expected):
        builder = pair_family(alpha, beta)
        phi0 = PopulationVector(np.array(start))
        rows = elimination_time_scan(builder, phi0, [1.0], config)
        assert rows == [ScanRow(scale=1.0, steps=expected)]
        assert rows == serial_scan(builder, phi0, [1.0], config)

    @given(
        alpha=st.floats(-0.4, 0.4).filter(lambda x: abs(x) > 0.01),
        beta=st.floats(-0.4, 0.4).filter(lambda x: abs(x) > 0.01),
        share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        scales=st.lists(st.floats(0.05, 1.0), max_size=6),
        max_steps=st.integers(1, 600),
        convergence_tol=st.sampled_from([1e-12, 1e-3]),
        zero_tol=st.sampled_from([1e-12, 1e-9, 1e-4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_species_families_match_serial_scan(
        self, alpha, beta, share, scales, max_steps, convergence_tol, zero_tol
    ):
        builder = pair_family(alpha, beta)
        phi0 = PopulationVector(np.array([share, 1.0 - share]))
        config = SimulationConfig(
            max_steps=max_steps,
            convergence_tol=convergence_tol,
            tolerances=ToleranceConfig(zero_tol=zero_tol),
        )
        assert elimination_time_scan(builder, phi0, scales, config) == serial_scan(
            builder, phi0, scales, config
        )

    @given(
        n=st.sampled_from([2, 3, 5, 10, 30]),
        seed=st.integers(0, 2**16),
        neg_fraction=st.floats(0.0, 1.0),
        scales=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
        max_steps=st.integers(1, 400),
        zero_tol=st.sampled_from([1e-12, 1e-6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_n_species_families_match_serial_scan(
        self, n, seed, neg_fraction, scales, max_steps, zero_tol
    ):
        builder = shrunk_family(random_competitive(n, 0.5, neg_fraction, seed))
        phi0 = make_population(np.random.default_rng(seed).random(n) + 0.05)
        config = SimulationConfig(max_steps=max_steps, tolerances=ToleranceConfig(zero_tol=zero_tol))
        assert elimination_time_scan(builder, phi0, scales, config) == serial_scan(
            builder, phi0, scales, config
        )

    def test_makes_no_per_scale_engine_calls(self, monkeypatch):
        calls = {"evolve": 0, "crossing_fraction": 0}

        def counted(name):
            original = getattr(dynamics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(dynamics, name, counted(name))
        rows = elimination_time_scan(
            lambda c: two_species_matrix(c, -c / 2), make_population([0.5, 0.5]), [0.01, 0.02]
        )
        assert [r.steps for r in rows] == [80, 40]
        assert calls == {"evolve": 0, "crossing_fraction": 0}

    def test_population_size_mismatch_names_both_sizes(self):
        with pytest.raises(DimensionMismatchError, match="is 2x2 but the population has 3 entries"):
            elimination_time_scan(
                lambda c: two_species_matrix(c, -c / 2), make_population([1, 1, 1]), [0.1]
            )

    def test_matrices_of_different_sizes_rejected(self):
        def builder(c):
            return shrunk_family(random_competitive(3 if c < 0.15 else 2, 0.5, 0.5, 1))(c)

        with pytest.raises(DimensionMismatchError, match="scale 0.2 is 2x2 but the population has 3"):
            elimination_time_scan(builder, make_population([1, 1, 1]), [0.1, 0.2])

    def test_empty_scales_give_no_rows(self):
        assert elimination_time_scan(lambda c: two_species_matrix(c, c), make_population([1, 1]), []) == []

    def test_single_species_never_eliminates(self):
        rows = elimination_time_scan(
            lambda c: EvolutionMatrix([[1.0]]), make_population([1.0]), [0.5, 1.0]
        )
        assert rows == [ScanRow(scale=0.5, steps=None), ScanRow(scale=1.0, steps=None)]
