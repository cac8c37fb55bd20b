import contextlib
from unittest import mock

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
    Trajectory,
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
from evosum import core, dynamics, spectral, two_species
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


@contextlib.contextmanager
def patched_zero_tol(value):
    """Run the body with ``ZERO_TOL`` set to ``value`` in every module that reads it.

    Entered inside the test body: under ``@given`` the function-scoped
    ``monkeypatch`` fixture would span every example of the test.
    """
    with contextlib.ExitStack() as stack:
        for module in (core, dynamics, spectral, two_species):
            stack.enter_context(mock.patch.object(module, "ZERO_TOL", value))
        yield


def reference_fold(entries, index):
    """The engine's fold as three ``np.delete`` calls, kept apart from ``dynamics``."""
    removed_row = np.delete(entries[index, :], index)
    reduced = np.delete(np.delete(entries, index, axis=0), index, axis=1)
    reduced[np.diag_indices_from(reduced)] += removed_row
    return reduced


def serial_evolve(system: ActiveSystem, config: SimulationConfig = SimulationConfig()) -> Trajectory:
    """Reference engine: one matvec and one ``crossing_fraction`` call per step.

    The plain per-step loop whose every output ``evolve``'s block stepping
    must reproduce bit for bit.
    """
    entries = np.array(system.matrix.entries)
    phi = np.array(system.populations.values)
    alive = list(system.alive_ids)
    full_size = system.universe_size

    def embed(state):
        full = np.zeros(full_size)
        full[alive] = state
        return dynamics._floor_dust(full)

    rows = [(0, 0.0, embed(phi), -1)]
    events = []
    neg_after = None
    t = 0
    while True:
        if len(alive) == 1:
            reason = TerminationReason.ALL_BUT_ONE_EXTINCT
            break
        if t >= config.max_steps:
            reason = TerminationReason.MAX_STEPS
            break
        proposed = entries @ phi
        crossing = dynamics.crossing_fraction(phi, proposed)
        if crossing is not None:
            local, tau = crossing
            phi = (1.0 - tau) * phi + tau * proposed
            phi[local] = 0.0
            if neg_after is None:
                neg_after = dynamics.negative_offdiag_count(entries)
            neg_before = neg_after
            entries = reference_fold(entries, local)
            neg_after = dynamics.negative_offdiag_count(entries)
            events.append(EliminationEvent(t, tau, alive[local], neg_before, neg_after))
            rows.append((t, tau, embed(phi), alive[local]))
            phi = np.delete(phi, local)
            del alive[local]
            continue
        l1_change = float(np.abs(proposed - phi).sum())
        phi = proposed
        t += 1
        if t % config.record_every == 0:
            rows.append((t, 0.0, embed(phi), -1))
        if l1_change < config.convergence_tol:
            reason = TerminationReason.CONVERGED
            break

    terminal = embed(phi)
    last_step, _, last_values, _ = rows[-1]
    if last_step != t or not np.array_equal(last_values, terminal):
        rows.append((t, 0.0, terminal, -1))
    steps, fractions, values, event_species = zip(*rows)
    final_system = ActiveSystem(
        matrix=EvolutionMatrix(entries),
        populations=make_population(dynamics._floor_dust(phi)),
        alive_ids=tuple(alive),
        universe_size=full_size,
    )
    return Trajectory(
        steps=np.array(steps, dtype=int),
        fractions=np.array(fractions),
        values=np.array(values),
        event_species=np.array(event_species, dtype=int),
        events=tuple(events),
        terminated_reason=reason,
        final_system=final_system,
    )


def assert_same_run(actual, expected):
    """Bit-for-bit equality of every column, event and the final system."""
    for name in ("steps", "fractions", "values", "event_species"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert (a.dtype, a.shape) == (e.dtype, e.shape), name
        assert a.tobytes() == e.tobytes(), name
    assert actual.events == expected.events
    assert actual.terminated_reason is expected.terminated_reason
    final, reference = actual.final_system, expected.final_system
    assert final.matrix.entries.tobytes() == reference.matrix.entries.tobytes()
    assert final.populations.values.tobytes() == reference.populations.values.tobytes()
    assert (final.alive_ids, final.universe_size) == (reference.alive_ids, reference.universe_size)


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

    @pytest.mark.parametrize("kill", [0, 3, 6])
    def test_same_bytes_as_reference_fold(self, kill):
        matrix = random_competitive(7, 0.5, 0.5, seed=11)
        pops = np.full(7, 1.0 / 6)
        pops[kill] = 0.0
        populations = PopulationVector(pops)
        system = ActiveSystem(matrix=matrix, populations=populations, alive_ids=range(1, 8))
        reduced = eliminate_species(system, kill)
        expected = reference_fold(np.array(matrix.entries), kill)
        assert reduced.matrix.entries.tobytes() == expected.tobytes()
        assert reduced.populations.values.tobytes() == np.delete(pops, kill).tobytes()
        assert reduced.alive_ids == tuple(i for i in range(1, 8) if i != kill + 1)
        assert reduced.universe_size == 8

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
            # An infinite tolerance would stop every run as converged after one step.
            {"convergence_tol": np.inf},
            {"convergence_tol": True},
            {"convergence_tol": "1e-9"},
        ],
    )
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(ValidationError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_steps": 0}, "max_steps must be at least 1"),
            ({"record_every": np.int64(-3)}, "record_every must be at least 1"),
            ({"max_steps": 2.5}, "max_steps must be an integer, got 2.5"),
            ({"record_every": 1.5}, "record_every must be an integer, got 1.5"),
            ({"max_steps": 3.0}, "max_steps must be an integer, got 3.0"),
            ({"record_every": True}, "record_every must be an integer, got True"),
            ({"max_steps": "5"}, "max_steps must be an integer, got '5'"),
        ],
    )
    def test_step_count_messages(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            SimulationConfig(**kwargs)

    def test_numpy_integer_step_counts_accepted(self):
        config = SimulationConfig(max_steps=np.int64(30), record_every=np.int32(7))
        trajectory = evolve(system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1]), config)
        assert trajectory.steps.tolist() == [0, 7, 14, 21, 28, 30]


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


@st.composite
def engine_runs(draw):
    """A system, run limits and a ``ZERO_TOL`` for ``evolve``, over every matrix source and stop rule."""
    source = draw(
        st.sampled_from(["competitive", "stochastic", "coexistence", "monotone", "winner-takes-all"])
    )
    seed = draw(st.integers(0, 2**16))
    if source in ("competitive", "stochastic"):
        n = draw(st.sampled_from([1, 2, 3, 10, 40]))
        if source == "competitive" and n > 1:
            scale = draw(st.sampled_from([0.05, 0.5]))
            matrix = random_competitive(n, scale, draw(st.floats(0.0, 1.0)), seed)
        else:
            matrix = random_stochastic(n, 0.3, seed)
    else:
        n = 2
        sign_a, sign_b = {"coexistence": (1, 1), "monotone": (1, -1), "winner-takes-all": (-1, -1)}[source]
        magnitude = st.floats(0.001, 0.4)
        matrix = two_species_matrix(sign_a * draw(magnitude), sign_b * draw(magnitude))
    abundances = np.random.default_rng(seed).random(n) + 0.01
    extinct = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    extinct[0] &= not extinct.all()  # keep one species alive
    abundances[extinct] = 0.0
    config = SimulationConfig(
        max_steps=draw(st.integers(1, 3000)),
        convergence_tol=draw(st.sampled_from([0.0, 1e-12, 1e-3])),
        record_every=draw(st.sampled_from([1, 7, 1000])),
    )
    return system_of(matrix, abundances), config, draw(st.sampled_from([1e-12, 1e-6]))


def crossing_and_convergence_tol(matrix, start):
    """A ``convergence_tol`` that the first crossing step is also the first to meet."""
    phi = np.array(start, dtype=float)
    changes = []
    while True:
        proposed = matrix.entries @ phi
        changes.append(float(np.abs(proposed - phi).sum()))
        if np.any(proposed < -1e-12):
            return len(changes) - 1, (changes[-2] + changes[-1]) / 2
        phi = proposed


class TestBlockStepping:
    """``evolve`` steps in speculative blocks; ``serial_evolve`` is the reference."""

    @given(engine_runs())
    @settings(max_examples=80, deadline=None)
    def test_matches_serial_engine(self, run):
        system, config, zero_tol = run
        with patched_zero_tol(zero_tol):
            assert_same_run(evolve(system, config), serial_evolve(system, config))

    @pytest.mark.parametrize("alpha, beta, step", [(0.1, -0.05, 7), (0.02, -0.01, 40)])
    def test_crossing_and_convergence_in_one_step(self, alpha, beta, step):
        # Blocks cover steps 0, 1-2, 3-6, 7-14, ..., 31-62: step 7 opens a block
        # and step 40 lies inside one. The crossing step is the first whose
        # change is below convergence_tol, and the crossing must win.
        matrix = two_species_matrix(alpha, beta)
        crossing_step, tol = crossing_and_convergence_tol(matrix, [0.5, 0.5])
        assert crossing_step == step
        system = system_of(matrix, [0.5, 0.5])
        config = SimulationConfig(max_steps=1000, convergence_tol=tol)
        trajectory = evolve(system, config)
        assert [e.step_index for e in trajectory.events] == [step]
        assert trajectory.terminated_reason is TerminationReason.ALL_BUT_ONE_EXTINCT
        assert_same_run(trajectory, serial_evolve(system, config))

    def test_crossing_on_first_step_of_a_block(self):
        # The crossing during step 7 is the first step of the block of 8 that
        # starts after 1 + 2 + 4 clean steps.
        system = system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5])
        config = SimulationConfig(max_steps=1000)
        trajectory = evolve(system, config)
        assert [e.step_index for e in trajectory.events] == [7]
        assert_same_run(trajectory, serial_evolve(system, config))

    @pytest.mark.parametrize("max_steps", [5, 10, 100, 257, 1000])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_cap_inside_a_block(self, max_steps, record_every):
        # Blocks of 1, 2, 4, ... clean steps: none of these caps falls on a block edge.
        system = system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1])
        config = SimulationConfig(max_steps=max_steps, convergence_tol=0.0, record_every=record_every)
        trajectory = evolve(system, config)
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS
        assert trajectory.steps[-1] == max_steps
        assert_same_run(trajectory, serial_evolve(system, config))

    def test_cap_inside_a_block_after_events(self):
        system = system_of(random_competitive(40, 0.5, 0.5, 3), np.ones(40))
        config = SimulationConfig(max_steps=1000, convergence_tol=0.0, record_every=7)
        trajectory = evolve(system, config)
        assert len(trajectory.events) >= 5
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS
        assert_same_run(trajectory, serial_evolve(system, config))

    def test_crossing_fraction_called_once_per_event(self, monkeypatch):
        calls = []
        real = dynamics.crossing_fraction

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dynamics, "crossing_fraction", counted)
        trajectory = evolve(
            system_of(random_competitive(40, 0.5, 0.5, 3), np.ones(40)),
            SimulationConfig(max_steps=6000),
        )
        assert len(trajectory.events) >= 5
        assert len(calls) == len(trajectory.events)

        calls.clear()
        altruistic = evolve(
            system_of(random_stochastic(40, 0.3, 3), np.ones(40)),
            SimulationConfig(max_steps=6000, convergence_tol=0.0),
        )
        assert altruistic.events == ()
        assert altruistic.steps[-1] == 6000
        assert calls == []


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

        def counted(entries):
            calls.append(entries.shape[0])
            return real(entries)

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

    @pytest.mark.parametrize("steps", [np.nan, 2.0, True])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValidationError, match="steps must be an integer"):
            growth_unconstrained([1.1, 1.0], [0.5, 0.5], steps)

    def test_numpy_integer_steps_accepted(self):
        assert_allclose(growth_unconstrained([1.1, 1.0], [1.0, 1.0], np.int64(2)), [1.21, 1.0])


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

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_step_budget_below_one_rejected(self, max_steps):
        with pytest.raises(ValidationError, match="max_steps must be at least 1"):
            evolve_backward(two_species_matrix(0.1, 0.1), make_population([0.6, 0.4]), max_steps)

    @pytest.mark.parametrize("max_steps", [2.5, True, np.float64(4.0)])
    def test_non_integer_step_budget_rejected(self, max_steps):
        with pytest.raises(ValidationError, match="max_steps must be an integer"):
            evolve_backward(two_species_matrix(0.1, 0.1), make_population([0.6, 0.4]), max_steps)

    def test_singular_matrix_rejected(self):
        flat = EvolutionMatrix([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SingularMatrixError):
            evolve_backward(flat, make_population([0.5, 0.5]), max_steps=5)


class TestStopRuleBoundary:
    """A state landing exactly on ``-ZERO_TOL`` has not crossed; one step later it has.

    Dyadic inputs keep the arithmetic exact: with ``ZERO_TOL`` patched to
    ``z = 2**-10``, from ``(1/2 - z, 1/2 + z)`` the first step gives
    ``(-z, 1 + z)`` and the second ``(-1/2 - z, 3/2 + z)``.
    """

    Z = 2.0**-10
    CONFIG = SimulationConfig(max_steps=10)
    MATRIX = two_species_matrix(0.5, -0.5)
    START = make_population([0.5 - Z, 0.5 + Z])

    def test_evolve_eliminates_on_the_second_step(self):
        with patched_zero_tol(self.Z):
            trajectory = evolve(ActiveSystem(matrix=self.MATRIX, populations=self.START), self.CONFIG)
        assert trajectory.values[1].tolist() == [-self.Z, 1.0 + self.Z]
        assert [(e.step_index, e.species_id) for e in trajectory.events] == [(1, 0)]

    def test_scan_eliminates_on_the_second_step(self):
        with patched_zero_tol(self.Z):
            rows = elimination_time_scan(lambda c: self.MATRIX, self.START, [1.0], self.CONFIG)
        assert rows == [ScanRow(scale=1.0, steps=1)]


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
            # Species 1 dips below zero at once but stays inside the 1e-12 zero band for
            # 13 steps; this pins ZERO_TOL itself (at 1e-6 it never crosses).
            (0.05, -1e-13, [0.0, 1.0], SimulationConfig(max_steps=200, convergence_tol=0.0), 13),
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
        config = SimulationConfig(max_steps=max_steps, convergence_tol=convergence_tol)
        with patched_zero_tol(zero_tol):
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
        config = SimulationConfig(max_steps=max_steps)
        with patched_zero_tol(zero_tol):
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
