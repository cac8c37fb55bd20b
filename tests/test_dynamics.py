import contextlib
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evosum import (
    EliminationEvent,
    EvolutionMatrix,
    PopulationVector,
    SimulationConfig,
    TerminationReason,
    crossing_fraction,
    eigendecompose,
    elimination_time_scan,
    evolve,
    evolve_backward,
    make_population,
    random_competitive,
    random_stochastic,
    two_species_matrix,
)
from evosum import core, dynamics, spectral, two_species
from evosum.errors import NumericalError, ValidationError


@dataclass(frozen=True)
class Trajectory:
    """One whole run as columns of equal length T, rebuilt from ``evolve``'s windows.

    Row k is the full-length state ``values[k]`` (shape (T, N)) after
    ``steps[k]`` completed steps; ``events`` name their rows by
    ``row_index``. ``window_rows`` holds the length of each window the run
    was handed over in (empty for ``serial_evolve``, which has none).
    """

    steps: np.ndarray
    values: np.ndarray
    events: tuple[EliminationEvent, ...]
    terminated_reason: TerminationReason
    final_matrix: EvolutionMatrix
    window_rows: tuple[int, ...] = ()


def collect(run) -> Trajectory:
    """Every window of ``run``, an ``evolve`` generator, joined into one ``Trajectory``.

    Checks each window as it is joined: its columns are read-only and of
    one length, every window but the last has the first one's length, each
    of its events names a row inside it, and only the last carries the
    run's end, a ``(TerminationReason, EvolutionMatrix)`` pair.
    """
    windows = list(run)
    start = 0
    for steps, values, events, end in windows:
        assert len(steps) == len(values) > 0
        assert not steps.flags.writeable and not values.flags.writeable
        assert all(start <= e.row_index < start + len(steps) for e in events)
        start += len(steps)
    assert all(end is None for *_, end in windows[:-1])
    reason, final_matrix = windows[-1][3]
    assert isinstance(reason, TerminationReason) and isinstance(final_matrix, EvolutionMatrix)
    lengths = tuple(len(steps) for steps, *_ in windows)
    assert all(length == lengths[0] for length in lengths[:-1])
    return Trajectory(
        steps=np.concatenate([steps for steps, *_ in windows]),
        values=np.concatenate([values for _, values, *_ in windows]),
        events=tuple(e for _, _, events, _ in windows for e in events),
        terminated_reason=reason,
        final_matrix=final_matrix,
        window_rows=lengths,
    )


def windows_of(trajectory: Trajectory, size: int):
    """Hand ``trajectory``'s rows over as ``evolve`` does, in windows of ``size`` rows."""
    rows = len(trajectory.steps)
    for start in range(0, rows, size):
        stop = start + size
        events = tuple(e for e in trajectory.events if start <= e.row_index < stop)
        end = None if stop < rows else (trajectory.terminated_reason, trajectory.final_matrix)
        yield trajectory.steps[start:stop], trajectory.values[start:stop], events, end


def system_of(matrix: EvolutionMatrix, raw) -> tuple[EvolutionMatrix, PopulationVector]:
    """The ``(matrix, populations)`` arguments of ``evolve``."""
    return matrix, make_population(raw)


def survivor_values(trajectory):
    """The terminal row at the survivors, the ids that no event names."""
    extinct = {event.species_id for event in trajectory.events}
    return trajectory.values[-1][[i for i in range(trajectory.values.shape[1]) if i not in extinct]]


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


def reference_crossing_fraction(phi_before, phi_after):
    """``crossing_fraction`` as array operations over every negative entry at once."""
    before = np.asarray(phi_before, dtype=float)
    after = np.asarray(phi_after, dtype=float)
    negative = np.flatnonzero(after < -dynamics.ZERO_TOL)
    if negative.size == 0:
        return None
    start = before[negative]
    taus = start / (start - after[negative])
    taus[taus < 0.0] = 0.0
    taus[taus > 1.0] = 1.0
    k = int(np.argmin(taus))
    return int(negative[k]), float(taus[k])


def crossing_outcome(function, before, after, action):
    """What ``function(before, after)`` gives under the warnings filter ``action``.

    Under "error", the result or the category of the warning raised. Under
    "always", the result and the set of warnings given, "scalar " taken out
    of each message: numpy says "divide by zero encountered in scalar
    divide" where an array operation says "... in divide".
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            result = function(before, after)
        except RuntimeWarning:
            return "raised RuntimeWarning"
    if result is not None:
        index, tau = result
        assert type(index) is int and type(tau) is float
        result = index, np.float64(tau).tobytes()  # the sign of zero and NaN's bits count
    return result, {(w.category, str(w.message).replace("scalar ", "")) for w in caught}


def serial_evolve(
    matrix: EvolutionMatrix,
    populations: PopulationVector,
    config: SimulationConfig = SimulationConfig(),
) -> Trajectory:
    """Reference engine: one matvec and one ``crossing_fraction`` call per step.

    The plain per-step loop whose every output ``evolve``'s block stepping
    must reproduce bit for bit.
    """
    entries = np.array(matrix.entries)
    phi = np.array(populations.values)
    alive = list(range(matrix.n))
    full_size = matrix.n

    def embed(state):
        full = np.zeros(full_size)
        full[alive] = state
        # Its own copy of the dust floor: only entries in (-ZERO_TOL, 0) become 0.0.
        return np.where((full < 0.0) & (full > -dynamics.ZERO_TOL), 0.0, full)

    rows = [(0, embed(phi))]
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
            events.append(EliminationEvent(t, tau, alive[local], neg_before, neg_after, len(rows)))
            rows.append((t, embed(phi)))
            phi = np.delete(phi, local)
            del alive[local]
            continue
        l1_change = float(np.abs(proposed - phi).sum())
        phi = proposed
        t += 1
        if t % config.record_every == 0:
            rows.append((t, embed(phi)))
        if l1_change < config.convergence_tol:
            reason = TerminationReason.CONVERGED
            break

    terminal = embed(phi)
    last_step, last_values = rows[-1]
    if last_step != t or not np.array_equal(last_values, terminal):
        rows.append((t, terminal))
    steps, values = zip(*rows)
    return Trajectory(
        steps=np.array(steps, dtype=int),
        values=np.array(values),
        events=tuple(events),
        terminated_reason=reason,
        # Derived from a checked matrix: rounding in the fold may move a
        # column sum past the input tolerance, so it is not checked again.
        final_matrix=core._derived_matrix(entries),
    )


def assert_same_run(actual, expected):
    """Bit-for-bit equality of every column, event (with its row) and the final matrix."""
    for name in ("steps", "values"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert (a.dtype, a.shape) == (e.dtype, e.shape), name
        assert a.tobytes() == e.tobytes(), name
    assert actual.events == expected.events
    assert actual.terminated_reason is expected.terminated_reason
    assert actual.final_matrix.entries.tobytes() == expected.final_matrix.entries.tobytes()


def serial_scan(family, phi0, config=SimulationConfig()):
    """Reference scan: one full ``evolve`` per member of ``family``, keeping its first event."""
    steps = []
    for entries in family:
        events = collect(evolve(EvolutionMatrix(entries), phi0, config)).events
        steps.append(events[0].step_index if events else None)
    return steps


def stepwise_scan(entries, phi0, config=SimulationConfig()):
    """Reference lockstep scan: one stacked matvec and one stop test per step.

    The plain per-step loop over ``entries`` (S, n, n) whose results the
    block-stepped ``elimination_time_scan`` must reproduce. It
    keeps its own copy of the stop rule and reads ``ZERO_TOL`` at call time.
    """
    steps = [None] * entries.shape[0]
    if phi0.size == 1:
        return steps
    live = np.arange(entries.shape[0])
    phi = np.repeat(phi0[None, :], entries.shape[0], axis=0)
    t = 0
    while live.size and t < config.max_steps:
        proposed = np.matmul(entries, phi[:, :, None])[:, :, 0]
        crossed = (proposed < -dynamics.ZERO_TOL).any(axis=1)
        converged = np.abs(proposed - phi).sum(axis=1) < config.convergence_tol
        finished = crossed | converged
        if finished.any():
            for k in live[crossed].tolist():
                steps[k] = t
            running = ~finished
            live, entries, proposed = live[running], entries[running], proposed[running]
        phi = proposed
        t += 1
    return steps


def stacked(builder, scales):
    """The (S, n, n) stack of ``builder(c)`` entries that the scan advances."""
    return np.stack([builder(scale).entries for scale in scales])


def bench_grid(seed):
    """The benchmark sweep's 400 scales over [0.05, 2], shifted within one spacing by ``seed``."""
    spacing = (2.0 - 0.05) / 400
    offset = float(np.random.default_rng(seed).random())
    return [0.05 + (i + offset) * spacing for i in range(400)]


def pair_family(alpha: float, beta: float):
    """Builder for ``two_species_matrix(alpha * c, beta * c)``."""
    return lambda c: two_species_matrix(alpha * c, beta * c)


def shrunk_family(base: EvolutionMatrix):
    """Builder for ``I + c * (M - I)``: the generator of ``base`` scaled by c."""
    identity = np.eye(base.n)
    return lambda c: EvolutionMatrix(identity + c * (base.entries - identity))


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

    @pytest.mark.parametrize(
        "before, after",
        [
            ([-0.0, 1.0], [-0.05, 1.05]),  # -0.0 / 0.05 is -0.0, and -0.0 is not below 0.0
            ([-1e-13, 0.5, 0.5], [-0.1, -0.2, 1.3]),  # dust start: a negative fraction
            ([-0.3, 1.3], [-0.1, 1.1]),  # both negative: a fraction above 1
            ([np.nan, 0.5, 0.5], [-0.1, -0.1, 1.2]),  # NaN is the minimum
            ([0.5, 0.5], [-np.inf, np.inf]),
        ],
        ids=["negative-zero", "below-zero", "above-one", "nan", "inf"],
    )
    def test_clamp_keeps_the_bits_of_np_clip(self, before, after):
        # The fraction is clamped into [0, 1] with np.clip's exact results,
        # sign of zero and NaN included.
        b, a = np.array(before), np.array(after)
        negative = np.flatnonzero(a < -dynamics.ZERO_TOL)
        taus = np.clip(b[negative] / (b[negative] - a[negative]), 0.0, 1.0)
        k = int(np.argmin(taus))
        index, tau = crossing_fraction(before, after)
        assert index == int(negative[k])
        assert np.float64(tau).tobytes() == taus[k].tobytes()

    # Each kind of entry a fraction can meet: special values, the boundary at
    # -ZERO_TOL and its neighbours, and a few plain values that repeat, so
    # that draws hold exact ties and zero denominators.
    CROSSING_VALUES = st.one_of(
        st.sampled_from([
            np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-12, -1e-12,
            np.nextafter(-1e-12, -1.0), np.nextafter(-1e-12, 0.0),
            0.2, -0.2, 0.5, -0.5, 1.5, 1e308, -1e308,
        ]),
        st.floats(allow_nan=True, allow_infinity=True),
    )

    @given(
        pairs=st.lists(st.tuples(CROSSING_VALUES, CROSSING_VALUES), max_size=8),
        as_lists=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    @example(pairs=[(0.2, -0.2), (0.2, -0.2), (0.6, 1.4)], as_lists=False)  # an exact tie
    @example(pairs=[(-0.5, -0.5), (np.inf, -np.inf)], as_lists=False)  # 0 denominators, inf/inf
    @example(pairs=[(0.5, -0.5), (np.nan, -0.5), (-np.inf, -np.inf)], as_lists=True)
    def test_matches_the_vectorized_reference(self, pairs, as_lists):
        # The same index, the same fraction bits and the same warnings:
        # under "error" both raise, or neither does.
        before = np.array([b for b, _ in pairs], dtype=float)
        after = np.array([a for _, a in pairs], dtype=float)
        if as_lists:
            before, after = before.tolist(), after.tolist()
        for action in ("error", "always"):
            expected = crossing_outcome(reference_crossing_fraction, before, after, action)
            assert crossing_outcome(crossing_fraction, before, after, action) == expected

    @pytest.mark.parametrize(
        "before, after",
        [
            ([0.5, 0.5], [-0.1]),
            ([0.5], [0.6, -0.1]),
            ([[0.5, 0.5], [0.5, 0.5]], [[1.1, -0.1], [0.6, 0.4]]),
        ],
        ids=["after-shorter", "before-shorter", "two-dimensional"],
    )
    def test_states_of_other_shapes_rejected(self, before, after):
        with pytest.raises(ValidationError, match="two 1-D states of one length"):
            crossing_fraction(before, after)


class TestEliminateSpecies:
    """``dynamics._eliminate``, the one fold, against ``reference_fold``."""

    def test_two_species_collapse_is_forced(self):
        entries, phi, alive = dynamics._eliminate(
            two_species_matrix(0.1, -0.05).entries, np.array([0.0, 1.0]), np.arange(2), 0
        )
        assert_allclose(entries, [[1.0]])
        assert_allclose(phi, [1.0])
        assert alive.tolist() == [1]

    def test_fold_preserves_column_sums(self):
        matrix = EvolutionMatrix([[0.9, -0.05], [0.1, 1.05]])
        entries, _, _ = dynamics._eliminate(matrix.entries, np.array([0.0, 1.0]), np.arange(2), 0)
        assert_allclose(entries, [[1.0]], atol=1e-15)

    def test_middle_species_bookkeeping(self):
        matrix = random_stochastic(3, 0.2, seed=1)
        entries, phi, alive = dynamics._eliminate(
            matrix.entries, np.array([0.4, 0.0, 0.6]), np.arange(3), 1
        )
        assert alive.tolist() == [0, 2]
        assert_allclose(EvolutionMatrix(entries).entries.sum(axis=0), 1.0, atol=1e-12)
        assert_allclose(phi, [0.4, 0.6])

    @pytest.mark.parametrize("kill", [0, 3, 6])
    def test_same_bytes_as_reference_fold(self, kill):
        matrix = random_competitive(7, 0.5, 0.5, seed=11)
        pops = np.full(7, 1.0 / 6)
        pops[kill] = 0.0
        ids = np.arange(1, 8)
        entries, phi, alive = dynamics._eliminate(matrix.entries, pops, ids, kill)
        expected = reference_fold(np.array(matrix.entries), kill)
        assert entries.tobytes() == expected.tobytes()
        assert phi.tobytes() == np.delete(pops, kill).tobytes()
        assert alive.tolist() == [i for i in range(1, 8) if i != kill + 1]

    @pytest.mark.parametrize(
        "width, local",
        [(w, local) for w in (2, 3, 17, 64, 200, 257) for local in sorted({0, w // 2, w - 1})],
    )
    def test_fold_matches_reference_at_every_width(self, width, local):
        matrix = random_competitive(width, 0.5, 0.5, seed=width)
        raw = np.ones(width)
        raw[local] = 0.0
        pops = make_population(raw).values
        ids = np.arange(1, 3 * width + 1, 3, dtype=np.intp)
        expected = reference_fold(np.array(matrix.entries), local)
        entries, phi, alive = dynamics._eliminate(matrix.entries, pops, ids, local)
        assert entries.shape == expected.shape
        assert entries.tobytes() == expected.tobytes()
        assert phi.tobytes() == np.delete(pops, local).tobytes()
        assert alive.dtype == np.intp
        assert alive.tobytes() == np.delete(ids, local).tobytes()

    @pytest.mark.parametrize(
        "entries, local, after",
        [
            # the diagonal entry at `local` is negative; it is in neither count
            ([[0.9, 0.6, -0.1], [0.3, -0.2, 0.2], [-0.2, 0.6, 0.9]], 1, 2),
            # (local, 2) and (2, local) are both negative: two transfers leave, not one
            ([[1.1, 0.2, -0.1], [0.1, 0.7, -0.2], [-0.2, 0.1, 1.3]], 0, 1),
        ],
    )
    def test_negative_count_follows_the_fold(self, entries, local, after):
        entries = EvolutionMatrix(entries).entries
        assert core.negative_offdiag_count(reference_fold(np.array(entries), local)) == after
        reduced, _, _ = dynamics._eliminate(entries, np.full(3, 0.5), np.arange(3), local)
        assert core.negative_offdiag_count(reduced) == after

    def test_fold_never_adds_negative_offdiagonals(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            matrix = random_competitive(n, 0.15, 0.5, int(rng.integers(0, 2**31)))
            pops = np.full(n, 1.0 / (n - 1))
            kill = int(rng.integers(0, n))
            pops[kill] = 0.0
            before = core.negative_offdiag_count(matrix.entries)
            entries, _, _ = dynamics._eliminate(matrix.entries, pops, np.arange(n), kill)
            after = core.negative_offdiag_count(EvolutionMatrix(entries).entries)
            assert after <= before


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
            # Steps are int64: a larger cap wrapped the last row's step or overflowed.
            ({"max_steps": 2**63 - 1}, "max_steps must be at most 9223372036854775806"),
            ({"max_steps": 10**20}, "max_steps must be at most 9223372036854775806"),
        ],
    )
    def test_step_count_messages(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            SimulationConfig(**kwargs)

    def test_numpy_integer_step_counts_accepted(self):
        config = SimulationConfig(max_steps=np.int64(30), record_every=np.int32(7))
        trajectory = collect(evolve(*system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1]), config))
        assert trajectory.steps.tolist() == [0, 7, 14, 21, 28, 30]


class TestEvolve:
    def test_coexistence_converges_with_no_events(self):
        trajectory = collect(evolve(
            *system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1]),
            SimulationConfig(max_steps=500),
        ))
        assert trajectory.events == ()
        assert trajectory.terminated_reason is TerminationReason.CONVERGED
        assert np.max(np.abs(trajectory.values[-1] - [2 / 3, 1 / 3])) < 1e-6
        assert_conserved(trajectory)

    def test_monotone_extinction_has_one_event(self):
        # Frozen from the brute-force oracle: crossing during step 7.
        trajectory = collect(evolve(
            *system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000),
        ))
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
        event = collect(evolve(
            *system_of(matrix, [0.5, 0.5]), SimulationConfig(max_steps=1000)
        )).events[0]
        assert (event.step_index, event.species_id) == oracle[:2]
        assert event.fraction == pytest.approx(oracle[2], abs=1e-12)

    @pytest.mark.parametrize(
        "a, eliminated, survivor_state",
        [(0.6, 1, [1.0, 0.0]), (0.4, 0, [0.0, 1.0])],
    )
    def test_winner_takes_all_depends_on_start(self, a, eliminated, survivor_state):
        trajectory = collect(evolve(
            *system_of(two_species_matrix(-0.05, -0.05), [a, 1 - a]),
            SimulationConfig(max_steps=1000),
        ))
        events = trajectory.events
        assert len(events) == 1
        assert events[0].species_id == eliminated
        assert events[0].step_index == 16  # frozen from the brute-force oracle
        assert_allclose(trajectory.values[-1], survivor_state)
        assert_conserved(trajectory)

    def test_already_extinct_start_eliminates_at_step_zero(self):
        trajectory = collect(evolve(
            two_species_matrix(0.02, -0.01),
            PopulationVector(np.array([0.0, 1.0])),
            SimulationConfig(max_steps=100),
        ))
        event = trajectory.events[0]
        assert event.step_index == 0
        assert event.fraction == 0.0

    def test_population_size_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="matrix is 3x3 but the population has 2 entries"):
            collect(evolve(random_stochastic(3, 0.3, 1), make_population([1, 1])))

    def test_max_steps_stop(self):
        trajectory = collect(evolve(
            *system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1]),
            SimulationConfig(max_steps=5, convergence_tol=0.0),
        ))
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS
        assert trajectory.steps[-1] == 5

    def test_record_every_thins_snapshots_but_keeps_events(self):
        trajectory = collect(evolve(
            *system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000, record_every=50),
        ))
        assert trajectory.events
        ordinary = np.delete(trajectory.steps, [e.row_index for e in trajectory.events])
        assert np.all(ordinary[:-1] % 50 == 0)

    def test_columns_are_aligned_and_readonly(self):
        windows = list(evolve(
            *system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000, record_every=3),
        ))
        [(steps, values, events, (reason, _))] = windows
        assert reason is TerminationReason.ALL_BUT_ONE_EXTINCT
        rows = len(steps)
        assert values.shape == (rows, 2)
        assert len(events) == 1 and 0 <= events[0].row_index < rows
        for column in (steps, values):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_event_rows_place_extinct_species_at_exact_zero(self):
        trajectory = collect(evolve(
            *system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5]),
            SimulationConfig(max_steps=1000),
        ))
        event = trajectory.events[0]
        k = event.row_index
        assert trajectory.values[k, event.species_id] == 0.0
        assert abs(trajectory.values[k].sum() - 1.0) < 1e-12

    def test_drift_stays_within_the_stated_bound(self):
        # Each column sums to 1 + 9.0e-13, inside CONSTRUCTION_TOL, so the
        # total grows by that much a step: 9.0e-8 after 100,000 steps, past
        # 1e-8 and inside (1 + CONSTRUCTION_TOL)**t - 1 plus rounding.
        matrix = EvolutionMatrix([[0.9, 0.1 + 9e-13], [0.1 + 9e-13, 0.9]])
        steps = 100_000
        config = SimulationConfig(max_steps=steps, convergence_tol=0, record_every=steps)
        trajectory = collect(evolve(*system_of(matrix, [1, 1]), config))
        assert trajectory.steps.tolist() == [0, steps]
        drift = abs(trajectory.values[-1].sum() - 1.0)
        deviation = float(np.abs(matrix.entries.sum(axis=0) - 1.0).max())
        bound = np.expm1(steps * np.log1p(core.CONSTRUCTION_TOL))
        rounding = steps * matrix.n * np.finfo(float).eps  # one matvec's per step
        assert 0.99 * steps * deviation < drift <= bound + rounding


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
            assert_same_run(collect(evolve(*system, config)), serial_evolve(*system, config))

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
        trajectory = collect(evolve(*system, config))
        assert [e.step_index for e in trajectory.events] == [step]
        assert trajectory.terminated_reason is TerminationReason.ALL_BUT_ONE_EXTINCT
        assert_same_run(trajectory, serial_evolve(*system, config))

    def test_crossing_on_first_step_of_a_block(self):
        # The crossing during step 7 is the first step of the block of 8 that
        # starts after 1 + 2 + 4 clean steps.
        system = system_of(two_species_matrix(0.1, -0.05), [0.5, 0.5])
        config = SimulationConfig(max_steps=1000)
        trajectory = collect(evolve(*system, config))
        assert [e.step_index for e in trajectory.events] == [7]
        assert_same_run(trajectory, serial_evolve(*system, config))

    @pytest.mark.parametrize("max_steps", [5, 10, 100, 257, 1000])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_cap_inside_a_block(self, max_steps, record_every):
        # Blocks of 1, 2, 4, ... clean steps: none of these caps falls on a block edge.
        system = system_of(two_species_matrix(0.1, 0.2), [0.9, 0.1])
        config = SimulationConfig(max_steps=max_steps, convergence_tol=0.0, record_every=record_every)
        trajectory = collect(evolve(*system, config))
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS
        assert trajectory.steps[-1] == max_steps
        assert_same_run(trajectory, serial_evolve(*system, config))

    def test_cap_inside_a_block_after_events(self):
        system = system_of(random_competitive(40, 0.5, 0.5, 3), np.ones(40))
        config = SimulationConfig(max_steps=1000, convergence_tol=0.0, record_every=7)
        trajectory = collect(evolve(*system, config))
        assert len(trajectory.events) >= 5
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS
        assert_same_run(trajectory, serial_evolve(*system, config))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("record_every", [1, 1000])
    def test_matches_serial_engine_at_benchmark_width(self, seed, record_every):
        # The width and draw of the benchmark's extinction cascade: long chains
        # of events within one step, where a re-evaluated step crosses again.
        system = system_of(random_competitive(200, 0.5, 0.5, seed), np.ones(200))
        config = SimulationConfig(max_steps=3000, record_every=record_every)
        trajectory = collect(evolve(*system, config))
        steps = [event.step_index for event in trajectory.events]
        assert any(a == b for a, b in zip(steps, steps[1:]))
        assert_same_run(trajectory, serial_evolve(*system, config))

    def test_blocks_of_both_reduction_orders(self, monkeypatch):
        # 33 eliminations narrow the run from 40 species to 7. Its blocks are
        # reduced along each state while it is wider than 32 species, and
        # species-major once it runs 256-step blocks at 32 species or fewer.
        calls = counted_stop_tests(monkeypatch)
        system = system_of(random_competitive(40, 0.05, 0.5, 1), np.ones(40))
        config = SimulationConfig(max_steps=3000)
        trajectory = collect(evolve(*system, config))
        assert len(trajectory.events) == 33
        assert any(shape[-1] > 32 for shape in calls)
        assert any(species_major(shape) for shape in calls)
        assert_same_run(trajectory, serial_evolve(*system, config))

    def test_crossing_fraction_called_once_per_event(self, monkeypatch):
        calls = []
        real = dynamics.crossing_fraction

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dynamics, "crossing_fraction", counted)
        trajectory = collect(evolve(
            *system_of(random_competitive(40, 0.5, 0.5, 3), np.ones(40)),
            SimulationConfig(max_steps=6000),
        ))
        assert len(trajectory.events) >= 5
        assert len(calls) == len(trajectory.events)

        calls.clear()
        altruistic = collect(evolve(
            *system_of(random_stochastic(40, 0.3, 3), np.ones(40)),
            SimulationConfig(max_steps=6000, convergence_tol=0.0),
        ))
        assert altruistic.events == ()
        assert altruistic.steps[-1] == 6000
        assert calls == []

    def test_fold_past_the_input_tolerance_keeps_the_run(self):
        # The example pinned on the family-check test of the scan: member 2
        # loads with column 0 off by 9.9987e-13, and the fold rounds it past 1e-12.
        rng = np.random.default_rng(4)
        family = rng.uniform(-0.5, 0.5, size=(4, 5, 5))
        family[:, np.arange(5), np.arange(5)] += 1.0 - family.sum(axis=1)
        for _ in range(2):
            i, j = rng.integers(0, 5, size=2)
            family[2, i, j] += 5e-13
        system = system_of(EvolutionMatrix(family[2]), np.ones(5))
        config = SimulationConfig(max_steps=5)
        trajectory = collect(evolve(*system, config))
        sums = trajectory.final_matrix.entries.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) > core.CONSTRUCTION_TOL
        assert not trajectory.final_matrix.entries.flags.writeable
        assert_same_run(trajectory, serial_evolve(*system, config))


class TestRowBuffer:
    """``evolve`` fills a row buffer and hands it over as a window when the next row does not fit.

    The tests shrink the windows through ``_WINDOW_ENTRIES``; ``serial_evolve``
    is the reference.
    """

    CAPACITY = 300  # rows of a shrunk window, more than one 256-step block records

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_rows_around_each_window_edge(self, monkeypatch, record_every):
        # No event and no convergence: the start plus one row per recorded
        # step, and a last row at the cap when it is not a recorded step. A
        # run one row over a window's edge hands its last row over alone.
        monkeypatch.setattr(dynamics, "_WINDOW_ENTRIES", 6 * self.CAPACITY)
        system = system_of(random_stochastic(6, 0.3, 2), np.ones(6))
        for rows in [k * self.CAPACITY + d for k in (1, 2) for d in (-1, 0, 1)]:
            if record_every == 1 or rows % 2 == 0:
                max_steps = (rows - 1) * record_every  # the cap is a recorded step
            else:
                max_steps = (rows - 1) * record_every - 1  # a last row at the cap
            config = SimulationConfig(
                max_steps=max_steps, convergence_tol=0.0, record_every=record_every
            )
            trajectory = collect(evolve(*system, config))
            full, rest = divmod(rows, self.CAPACITY)
            assert trajectory.window_rows == (self.CAPACITY,) * full + ((rest,) if rest else ())
            assert_same_run(trajectory, serial_evolve(*system, config))

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("offset", [0, 1], ids=["opens-a-window", "ends-a-window"])
    def test_event_row_at_a_window_edge(self, monkeypatch, record_every, offset):
        # The first event row past 256 (row 259 or 283) is made the first row
        # of the second window, or the last row of the first; `collect`
        # checks that each event comes in the window that holds its row.
        system = system_of(random_competitive(20, 0.05, 0.5, 1), np.ones(20))
        config = SimulationConfig(max_steps=3000, convergence_tol=0.0, record_every=record_every)
        expected = serial_evolve(*system, config)
        row = next(e.row_index for e in expected.events if e.row_index >= dynamics._MAX_BLOCK)
        monkeypatch.setattr(dynamics, "_WINDOW_ENTRIES", 20 * (row + offset))
        trajectory = collect(evolve(*system, config))
        assert trajectory.window_rows[0] == row + offset
        assert_same_run(trajectory, expected)

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("window", [1, 7])
    def test_one_block_fills_several_windows(self, monkeypatch, window, record_every):
        # The rows of a 256-step block spill over windows of 1 or 7 rows in turn.
        calls = counted_stop_tests(monkeypatch)
        monkeypatch.setattr(dynamics, "_WINDOW_ENTRIES", 6 * window)
        system = system_of(random_stochastic(6, 0.3, 5), np.ones(6))
        config = SimulationConfig(max_steps=600, convergence_tol=0.0, record_every=record_every)
        trajectory = collect(evolve(*system, config))
        assert max(shape[0] for shape in calls) == dynamics._MAX_BLOCK
        full, rest = divmod(len(trajectory.steps), window)
        assert trajectory.window_rows == (window,) * full + ((rest,) if rest else ())
        assert_same_run(trajectory, serial_evolve(*system, config))

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("window", [1, 7])
    def test_cascade_in_windows_smaller_than_one_block(self, monkeypatch, window, record_every):
        # 16 eliminations: some event rows open a window and some end one
        # (with 7-row windows, rows 259 and 118, or rows 21 and 20).
        monkeypatch.setattr(dynamics, "_WINDOW_ENTRIES", 20 * window)
        system = system_of(random_competitive(20, 0.05, 0.5, 1), np.ones(20))
        config = SimulationConfig(max_steps=3000, convergence_tol=0.0, record_every=record_every)
        trajectory = collect(evolve(*system, config))
        assert len(trajectory.events) == 16
        assert {0, window - 1} <= {e.row_index % window for e in trajectory.events}
        full, rest = divmod(len(trajectory.steps), window)
        assert trajectory.window_rows == (window,) * full + ((rest,) if rest else ())
        assert_same_run(trajectory, serial_evolve(*system, config))

    def test_huge_step_cap_that_converges_early(self):
        # About 1e9 rows could be recorded; the run hands over the rows it records.
        system = system_of(random_stochastic(5, 0.3, 1), np.ones(5))
        config = SimulationConfig(max_steps=10**9, convergence_tol=1e-9)
        trajectory = collect(evolve(*system, config))
        assert trajectory.terminated_reason is TerminationReason.CONVERGED
        assert len(trajectory.steps) < 1000
        assert_same_run(trajectory, serial_evolve(*system, config))


def chain(length: int) -> EvolutionMatrix:
    """Species i hands all of its mass to species i + 1, and the last keeps its own.

    From species 0 alone, the state after s steps is species min(s, length - 1)
    alone, computed exactly: step ``length`` is the first to reproduce its input.
    """
    entries = np.eye(length, k=-1)
    entries[-1, -1] = 1.0
    return EvolutionMatrix(entries)


def species_major(shape) -> bool:
    """Whether ``dynamics._stop_tests`` reduces a block of ``shape`` over its species one at a time.

    It does for 256 states or more of at most 32 species.
    """
    return shape[-1] <= 32 and int(np.prod(shape[:-1])) >= 256


def counted_stop_tests(monkeypatch) -> list:
    """Patch ``dynamics._stop_tests`` to log the shape of each block it tests."""
    calls = []
    real = dynamics._stop_tests

    def counted(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(dynamics, "_stop_tests", counted)
    return calls


class TestFixedPoint:
    """``evolve`` stops stepping once a step reproduces its input bit for bit.

    It records the rest of the run from that state; ``serial_evolve``, the
    reference, steps to the cap.
    """

    # Blocks of 1, 2, 4, 8, ... steps end after steps 1, 3, 7, 15, ...
    @pytest.mark.parametrize(
        "matrix, start, blocks",
        [
            (EvolutionMatrix(np.eye(3)), [1, 2, 3], 1),  # step 1 reproduces the start
            (chain(5), [1, 0, 0, 0, 0], 3),  # step 5, inside the block of steps 4-7
            (chain(7), [1, 0, 0, 0, 0, 0, 0], 3),  # step 7, at the end of that block
            (chain(8), [1, 0, 0, 0, 0, 0, 0, 0], 4),  # step 8, first of the block of 8-15
        ],
        ids=["step-1", "inside-a-block", "at-a-block-end", "opens-a-block"],
    )
    @pytest.mark.parametrize("record_every", [1, 7, 1000])
    def test_fixed_point_positions(self, monkeypatch, matrix, start, blocks, record_every):
        calls = counted_stop_tests(monkeypatch)
        system = system_of(matrix, start)
        config = SimulationConfig(max_steps=10_006, convergence_tol=0.0, record_every=record_every)
        trajectory = collect(evolve(*system, config))
        assert len(calls) == blocks  # no block runs after the one that found the fixed point
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS
        assert trajectory.steps[-1] == 10_006
        assert_same_run(trajectory, serial_evolve(*system, config))

    @pytest.mark.parametrize("max_steps", [4, 5, 6, 7, 8, 13])
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_cap_near_the_fixed_point(self, max_steps, record_every):
        # The chain's state settles after step 4 and step 5 reproduces it.
        system = system_of(chain(5), [1, 0, 0, 0, 0])
        config = SimulationConfig(max_steps=max_steps, convergence_tol=0.0, record_every=record_every)
        trajectory = collect(evolve(*system, config))
        assert trajectory.steps[-1] == max_steps
        assert_same_run(trajectory, serial_evolve(*system, config))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("record_every", [1, 7, 1000])
    def test_dense_draws_of_the_benchmark(self, seed, record_every):
        # The benchmark's dense draw, which reaches an exact fixed point
        # after about 2,000 of its 20,000 steps.
        system = system_of(random_competitive(50, 0.05, 0.1, seed), np.ones(50))
        config = SimulationConfig(max_steps=20_003, convergence_tol=0.0, record_every=record_every)
        assert_same_run(collect(evolve(*system, config)), serial_evolve(*system, config))

    CAPACITY = 300  # rows of a shrunk window of a 3-wide run

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_tail_windows_around_each_edge(self, monkeypatch, record_every):
        # Every row after the start comes from the fixed point. The last
        # window holds one row short of full, exactly full, or one row alone.
        monkeypatch.setattr(dynamics, "_WINDOW_ENTRIES", 3 * self.CAPACITY)
        system = system_of(EvolutionMatrix(np.eye(3)), [1, 2, 3])
        for rows in [k * self.CAPACITY + d for k in (1, 2, 3) for d in (-1, 0, 1)]:
            if record_every == 1 or rows % 2 == 0:
                max_steps = (rows - 1) * record_every  # the cap is a recorded step
            else:
                max_steps = (rows - 1) * record_every - 1  # a last row at the cap
            config = SimulationConfig(
                max_steps=max_steps, convergence_tol=0.0, record_every=record_every
            )
            trajectory = collect(evolve(*system, config))
            full, rest = divmod(rows, self.CAPACITY)
            assert trajectory.window_rows == (self.CAPACITY,) * full + ((rest,) if rest else ())
            assert_same_run(trajectory, serial_evolve(*system, config))

    def test_after_events_at_a_narrower_width(self):
        # Species 0 and 1 are driven out in step 0, then the last two
        # species settle: the rows keep the extinct slots at zero.
        matrix = EvolutionMatrix(
            [[1.0, 0.0, -0.1, 0.0], [0.0, 1.0, -0.1, 0.0], [0.0, 0.0, 1.2, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )
        system = system_of(matrix, [0.0, 0.0, 1.0, 1.0])
        config = SimulationConfig(max_steps=5000, convergence_tol=0.0, record_every=7)
        trajectory = collect(evolve(*system, config))
        assert [e.species_id for e in trajectory.events] == [0, 1]
        assert_same_run(trajectory, serial_evolve(*system, config))

    def test_costs_one_block_however_long_the_run(self, monkeypatch):
        # Stepping to the cap would take 3,914 blocks of up to 256 steps.
        calls = counted_stop_tests(monkeypatch)
        system = system_of(EvolutionMatrix(np.eye(3)), [1, 2, 3])
        config = SimulationConfig(max_steps=10**6, convergence_tol=0.0, record_every=10**5)
        trajectory = collect(evolve(*system, config))
        assert calls == [(1, 3)]
        assert trajectory.steps.tolist() == list(range(0, 10**6 + 1, 10**5))
        assert (trajectory.values == trajectory.values[0]).all()
        assert trajectory.terminated_reason is TerminationReason.MAX_STEPS

    def test_positive_tolerance_converges_at_the_fixed_point(self):
        # A step with zero change is below any positive tolerance.
        system = system_of(chain(5), [1, 0, 0, 0, 0])
        config = SimulationConfig(max_steps=10**6, convergence_tol=1e-300)
        trajectory = collect(evolve(*system, config))
        assert trajectory.terminated_reason is TerminationReason.CONVERGED
        assert trajectory.steps.tolist() == [0, 1, 2, 3, 4, 5]
        assert_same_run(trajectory, serial_evolve(*system, config))


def assert_event_rows(trajectory):
    """Each event's ``row_index`` names its own row, and the rows strictly increase."""
    rows = [event.row_index for event in trajectory.events]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    for event in trajectory.events:
        assert trajectory.steps[event.row_index] == event.step_index
        assert trajectory.values[event.row_index, event.species_id] == 0.0


class TestEventRows:
    """``EliminationEvent.row_index`` is the only record of which rows are eliminations."""

    @pytest.mark.parametrize("record_every", [1, 7, 1000])
    @pytest.mark.parametrize("n, seed", [(10, 2), (40, 3), (40, 4), (200, 1)])
    def test_rows_of_competitive_cascades(self, n, seed, record_every):
        system = system_of(random_competitive(n, 0.5, 0.5, seed), np.ones(n))
        config = SimulationConfig(max_steps=3000, record_every=record_every)
        trajectory = collect(evolve(*system, config))
        assert len(trajectory.events) >= 3
        assert_event_rows(trajectory)
        if record_every == 1:
            # Every step is recorded, so an event's row follows a row of its
            # own step: the ordinary row of that step, or an event before it.
            for event in trajectory.events:
                assert trajectory.steps[event.row_index - 1] == event.step_index
            steps = [event.step_index for event in trajectory.events]
            assert any(a == b for a, b in zip(steps, steps[1:]))

    def test_ordinary_row_and_two_event_rows_share_a_step(self):
        # Species 0 and 1 start extinct and are driven below zero by species 2
        # in step 0: both cross at fraction 0, species 0 first (the lower id),
        # then species 1 when the step is re-evaluated on the reduced system.
        matrix = EvolutionMatrix([[1.0, 0.0, -0.1], [0.0, 1.0, -0.1], [0.0, 0.0, 1.2]])
        system = system_of(matrix, [0.0, 0.0, 1.0])
        trajectory = collect(evolve(*system, SimulationConfig(max_steps=10)))
        assert trajectory.steps.tolist() == [0, 0, 0]
        assert [(e.step_index, e.species_id, e.row_index) for e in trajectory.events] == [
            (0, 0, 1),
            (0, 1, 2),
        ]
        assert trajectory.terminated_reason is TerminationReason.ALL_BUT_ONE_EXTINCT
        assert_event_rows(trajectory)
        assert_same_run(trajectory, serial_evolve(*system, SimulationConfig(max_steps=10)))


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
        trajectory = collect(evolve(
            matrix,
            start,
            SimulationConfig(max_steps=300),
        ))
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
            trajectory = collect(evolve(
                matrix,
                start,
                SimulationConfig(max_steps=20_000, convergence_tol=1e-13),
            ))
            assert_conserved(trajectory)
            if not trajectory.events:
                continue
            eliminating_runs += 1
            # the cascade must settle rather than run out of budget
            assert trajectory.terminated_reason is not TerminationReason.MAX_STEPS
            final = trajectory.final_matrix
            terminal = survivor_values(trajectory)
            if final.n == 1:
                assert_allclose(terminal, [1.0])
                continue
            stationary = eigendecompose(final).stationary
            assert stationary is not None
            assert np.max(np.abs(terminal - stationary.values)) < 1e-6
        assert eliminating_runs >= 10

    @staticmethod
    def assert_counts_follow_the_folds(matrix: EvolutionMatrix) -> Trajectory:
        """Run ``matrix`` from a uniform start, checking each event's negative off-diagonal counts.

        They must be those of the matrix before and after the event's fold,
        rebuilt by ``reference_fold`` and counted in full, while the engine
        counts only its input matrix.
        """
        calls = []

        def counted(entries):
            calls.append(entries.shape)
            return core.negative_offdiag_count(entries)

        n = matrix.n
        with mock.patch.object(dynamics, "negative_offdiag_count", counted):
            trajectory = collect(evolve(*system_of(matrix, np.ones(n)), SimulationConfig(max_steps=6000)))
        assert calls == [(n, n)]
        entries, alive = np.array(matrix.entries), list(range(n))
        for event in trajectory.events:
            assert event.neg_offdiag_before == core.negative_offdiag_count(entries)
            local = alive.index(event.species_id)
            entries = reference_fold(entries, local)
            del alive[local]
            assert event.neg_offdiag_after == core.negative_offdiag_count(entries)
            assert type(event.neg_offdiag_after) is int  # the summary's JSON takes no numpy integer
        assert entries.tobytes() == trajectory.final_matrix.entries.tobytes()
        return trajectory

    @given(st.one_of(st.just((30, 3)), st.tuples(st.just(200), st.integers(0, 2**32 - 1))))
    @settings(max_examples=8, deadline=None)
    @example((30, 3))
    def test_negative_offdiag_counts_follow_the_folds(self, draw):
        n, seed = draw
        trajectory = self.assert_counts_follow_the_folds(random_competitive(n, 0.5, 0.5, seed))
        assert len(trajectory.events) >= 5

    def test_negative_diagonal_of_the_extinct_species_is_in_no_count(self):
        # Species 0 crosses in step 0. Its row and its column both hold its
        # negative diagonal entry, which is off no diagonal.
        matrix = EvolutionMatrix([[-0.2, -0.1, 0.05], [0.6, 1.0, 0.05], [0.6, 0.1, 0.9]])
        events = self.assert_counts_follow_the_folds(matrix).events
        assert [(e.species_id, e.neg_offdiag_before, e.neg_offdiag_after) for e in events] == [(0, 1, 0)]

    def test_eliminations_strictly_reduce_dimension(self):
        trajectory = collect(evolve(
            *system_of(two_species_matrix(-0.05, -0.05), [0.3, 0.7]),
            SimulationConfig(max_steps=2000),
        ))
        assert trajectory.final_matrix.n == 2 - len(trajectory.events)

    @given(
        n=st.integers(2, 40),
        neg_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_relabelled_species_give_the_same_run(self, n, neg_fraction, seed, data):
        # The run of M[p][:, p] from start[p], mapped back through p. A
        # matvec then sums in another order, so the bits differ: over 3,000
        # such draws (37,213 events) the events matched on every one and the
        # final rows within 2.0e-13. No draw is set aside: two crossings in
        # one step could swap only if their fractions agreed to rounding, and
        # in those draws' 18,512 steps with several crossings the earliest
        # two were at least 1.7e-4 apart.
        matrix = random_competitive(n, 0.5, neg_fraction, seed)
        start = np.random.default_rng((seed, 1)).random(n) + 0.05
        p = np.array(data.draw(st.permutations(range(n))))
        config = SimulationConfig(max_steps=2000, convergence_tol=0)
        runs = [
            collect(evolve(*system_of(EvolutionMatrix(m), x), config))
            for m, x in [(matrix.entries, start), (matrix.entries[p][:, p], start[p])]
        ]
        original, relabelled = runs
        assert [(e.step_index, e.species_id) for e in original.events] == [
            (e.step_index, int(p[e.species_id])) for e in relabelled.events
        ]
        assert original.terminated_reason is relabelled.terminated_reason
        back = np.empty(n)
        back[p] = relabelled.values[-1]
        assert_allclose(back, original.values[-1], rtol=0, atol=1e-11)


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
        # The horizon's backward states stay in [0, 1]; one more solve leaves it
        # at the offender.
        endpoint = start.values
        for _ in range(report.horizon):
            endpoint = np.linalg.solve(matrix.entries, endpoint)
            assert np.all((endpoint >= 0) & (endpoint <= 1))
        beyond = np.linalg.solve(matrix.entries, endpoint)
        assert not 0 <= beyond[report.offender] <= 1
        forward = endpoint
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

    def test_population_size_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="^matrix is 2x2 but the population has 3 entries$"):
            evolve_backward(two_species_matrix(0.1, 0.1), make_population([1, 1, 1]), max_steps=5)

    def test_singular_matrix_rejected(self):
        flat = EvolutionMatrix([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(NumericalError, match="evolution matrix is singular; cannot step backward"):
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
            trajectory = collect(evolve(self.MATRIX, self.START, self.CONFIG))
        assert trajectory.values[1].tolist() == [-self.Z, 1.0 + self.Z]
        assert [(e.step_index, e.species_id) for e in trajectory.events] == [(1, 0)]

    def test_scan_eliminates_on_the_second_step(self):
        with patched_zero_tol(self.Z):
            steps = elimination_time_scan(self.MATRIX.entries[None], self.START, self.CONFIG)
        assert steps == [1]


class TestEliminationTimeScan:
    def test_inverse_scaling_family(self):
        family = stacked(lambda c: two_species_matrix(c, -c / 2), [0.01, 0.02, 0.04])
        assert elimination_time_scan(family, make_population([0.5, 0.5])) == [80, 40, 20]

    def test_matches_brute_force_oracle(self):
        for c in (0.01, 0.02, 0.04):
            matrix = two_species_matrix(c, -c / 2)
            oracle_steps = brute_first_crossing(matrix.entries, [0.5, 0.5])[0]
            steps = elimination_time_scan(matrix.entries[None], make_population([0.5, 0.5]))
            assert steps == [oracle_steps]

    def test_coexistence_family_reports_no_elimination(self):
        family = stacked(lambda c: two_species_matrix(c, c), [0.01, 0.02])
        assert elimination_time_scan(family, make_population([0.5, 0.5])) == [None, None]

    def test_extinct_start_counts_zero_steps(self):
        steps = elimination_time_scan(
            two_species_matrix(0.02, -0.01).entries[None], PopulationVector(np.array([0.0, 1.0]))
        )
        assert steps == [0]

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
        family = stacked(pair_family(alpha, beta), [1.0])
        phi0 = PopulationVector(np.array(start))
        steps = elimination_time_scan(family, phi0, config)
        assert steps == [expected]
        assert steps == serial_scan(family, phi0, config)

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
        family = np.reshape([builder(scale).entries for scale in scales], (-1, 2, 2))  # S may be 0
        phi0 = PopulationVector(np.array([share, 1.0 - share]))
        config = SimulationConfig(max_steps=max_steps, convergence_tol=convergence_tol)
        with patched_zero_tol(zero_tol):
            assert elimination_time_scan(family, phi0, config) == serial_scan(family, phi0, config)

    @given(
        n=st.sampled_from([2, 3, 5, 8, 9, 10, 30, 64]),
        seed=st.integers(0, 2**16),
        neg_fraction=st.floats(0.0, 1.0),
        scales=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
        max_steps=st.integers(1, 400),
        convergence_tol=st.sampled_from([0.0, 1e-12, 1e-3]),
        zero_tol=st.sampled_from([1e-12, 1e-6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_n_species_families_match_serial_scan(
        self, n, seed, neg_fraction, scales, max_steps, convergence_tol, zero_tol
    ):
        family = stacked(shrunk_family(random_competitive(n, 0.5, neg_fraction, seed)), scales)
        phi0 = make_population(np.random.default_rng(seed).random(n) + 0.05)
        config = SimulationConfig(max_steps=max_steps, convergence_tol=convergence_tol)
        with patched_zero_tol(zero_tol):
            assert elimination_time_scan(family, phi0, config) == serial_scan(family, phi0, config)

    @given(
        n=st.sampled_from([2, 3, 8, 9, 10, 30]),
        seed=st.integers(0, 2**16),
        neg_fraction=st.floats(0.0, 1.0),
        scales=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=60),
        max_steps=st.integers(1, 600),
        convergence_tol=st.sampled_from([0.0, 1e-12, 1e-3]),
        zero_tol=st.sampled_from([1e-12, 1e-6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_stepwise_scan(
        self, n, seed, neg_fraction, scales, max_steps, convergence_tol, zero_tol
    ):
        entries = stacked(shrunk_family(random_competitive(n, 0.5, neg_fraction, seed)), scales)
        phi0 = make_population(np.random.default_rng(seed).random(n) + 0.05)
        config = SimulationConfig(max_steps=max_steps, convergence_tol=convergence_tol)
        with patched_zero_tol(zero_tol):
            assert elimination_time_scan(entries, phi0, config) == stepwise_scan(
                entries, phi0.values, config
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
        family = stacked(lambda c: two_species_matrix(c, -c / 2), [0.01, 0.02])
        assert elimination_time_scan(family, make_population([0.5, 0.5])) == [80, 40]
        assert calls == {"evolve": 0, "crossing_fraction": 0}

    def test_family_builds_no_matrix(self, monkeypatch):
        def refused(entries):
            raise AssertionError("a family is checked as one stack, passing or failing")

        monkeypatch.setattr(dynamics, "EvolutionMatrix", refused)
        family = stacked(lambda c: two_species_matrix(c, -c / 2), [0.01, 0.02])
        assert elimination_time_scan(family, make_population([0.5, 0.5])) == [80, 40]
        family[1, 0, 1] = np.nan
        with pytest.raises(ValidationError, match=r"^evolution matrix entry \(0, 1\) is not finite \(nan\)$"):
            elimination_time_scan(family, make_population([0.5, 0.5]))

    def test_population_size_mismatch_names_both_sizes(self):
        with pytest.raises(ValidationError, match="is 2x2 but the population has 3 entries"):
            elimination_time_scan(
                two_species_matrix(0.1, -0.05).entries[None], make_population([1, 1, 1])
            )

    @pytest.mark.parametrize(
        "family",
        [np.ones((2, 3, 2)), np.ones((2, 2)), np.ones((1, 1, 2, 2)), np.ones((2, 0, 0))],
        ids=["non-square", "one-matrix", "four-dims", "empty-matrices"],
    )
    def test_family_not_a_stack_of_square_matrices_rejected(self, family):
        with pytest.raises(ValidationError, match="stack of nonempty square matrices"):
            elimination_time_scan(family, make_population([1, 1]))

    @given(
        n=st.integers(1, 5),
        size=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        poison=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([np.nan, np.inf, -np.inf, 1.7e308, 2e-12, 5e-13, -1e-11]),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    # Member 2's column 0 ends 9.9987e-13 off, inside the tolerance, and
    # `evolve`'s fold then rounds a column just past it.
    @example(n=5, size=4, seed=4, poison=[(2, 5e-13), (2, 5e-13)])
    def test_family_check_raises_the_first_failing_members_message(self, n, size, seed, poison):
        # Each member is a valid matrix, then some get one entry replaced by a
        # non-finite value, a huge one, or one nudged by a few 1e-12.
        rng = np.random.default_rng(seed)
        family = rng.uniform(-0.5, 0.5, size=(size, n, n))
        family[:, np.arange(n), np.arange(n)] += 1.0 - family.sum(axis=1)
        for member, value in poison:
            i, j = rng.integers(0, n, size=2)
            if abs(value) < 1e-10:
                family[member % size, i, j] += value
            else:
                family[member % size, i, j] = value
        expected = None
        for entries in family:
            try:
                EvolutionMatrix(entries)
            except ValidationError as exc:
                expected = str(exc)
                break
        phi0 = make_population(np.ones(n))
        config = SimulationConfig(max_steps=5)
        if expected is None:
            assert elimination_time_scan(family, phi0, config) == serial_scan(family, phi0, config)
        else:
            with pytest.raises(ValidationError) as caught:
                elimination_time_scan(family, phi0, config)
            assert str(caught.value) == expected

    def test_empty_scales_give_no_rows(self):
        assert elimination_time_scan(np.empty((0, 2, 2)), make_population([1, 1])) == []

    def test_single_species_never_eliminates(self):
        assert elimination_time_scan(np.ones((2, 1, 1)), make_population([1.0])) == [None, None]


class TestScanBlocks:
    """The scan steps in speculative blocks; ``stepwise_scan`` and ``serial_scan`` are the references.

    With at most 16 live systems the blocks cover steps 0, 1-2, 3-6, 7-14,
    15-30, 31-62, ... From (1/2, 1/2), ``two_species_matrix(c, -c/2)``
    first crosses during step 6 at c = 0.113, 7 at 0.099, 10 at 0.073, 14
    at 0.054 and 15 at 0.051.
    """

    HALF = make_population([1, 1])

    def assert_scan(self, builder, scales, config, expected, phi0=HALF):
        family = stacked(builder, scales)
        assert elimination_time_scan(family, phi0, config) == expected
        assert serial_scan(family, phi0, config) == expected
        assert stepwise_scan(family, phi0.values, config) == expected

    @pytest.mark.parametrize(
        "scale, step",
        [(0.099, 7), (0.051, 15), (0.113, 6), (0.054, 14), (0.073, 10)],
        ids=["first-of-7-14", "first-of-15-30", "last-of-3-6", "last-of-7-14", "inside-7-14"],
    )
    def test_stop_at_block_edges_and_inside(self, scale, step):
        self.assert_scan(pair_family(1.0, -0.5), [scale], SimulationConfig(), [step])

    @pytest.mark.parametrize(
        "max_steps, expected", [(35, None), (40, None), (41, 40), (100, 40)]
    )
    def test_cap_inside_a_block(self, max_steps, expected):
        # c = 0.02 crosses during step 40, inside the block 31-62; caps of
        # 35, 40 and 41 cut that block short.
        self.assert_scan(pair_family(1.0, -0.5), [0.02], SimulationConfig(max_steps=max_steps), [expected])

    def test_systems_stop_at_different_indices_of_one_block(self):
        # In the block 7-14: crossings at its indices 0, 3 and 7, convergence
        # (to 1e-3) at 4 and 6; one system runs on to converge at step 25 and
        # one crosses at step 15, the first of the next block.
        matrices = [
            two_species_matrix(0.099, -0.0495),
            two_species_matrix(0.073, -0.0365),
            two_species_matrix(0.054, -0.027),
            two_species_matrix(0.12, 0.24),
            two_species_matrix(0.1, 0.2),
            two_species_matrix(0.05, 0.1),
            two_species_matrix(0.051, -0.0255),
        ]
        config = SimulationConfig(convergence_tol=1e-3)
        scales = list(range(len(matrices)))
        self.assert_scan(matrices.__getitem__, scales, config, [7, 10, 14, None, None, None, 15])
        convergence = [collect(evolve(matrix, self.HALF, config)) for matrix in matrices[3:6]]
        assert [trajectory.steps[-1] for trajectory in convergence] == [12, 14, 26]

    def test_convergence_before_a_crossing_in_one_block(self):
        # The L1 change dips below 0.016 only during step 18, then grows until
        # the crossing during step 30, the last of the block 15-30. The system
        # stops at the convergence, the first stopping step of the block.
        builder = shrunk_family(random_competitive(3, 0.5, 0.5, 111))
        phi0 = make_population(np.random.default_rng(111).random(3) + 0.05)
        self.assert_scan(builder, [0.3], SimulationConfig(), [30], phi0)
        self.assert_scan(builder, [0.3], SimulationConfig(convergence_tol=0.016), [None], phi0)
        converged = collect(evolve(builder(0.3), phi0, SimulationConfig(convergence_tol=0.016)))
        assert converged.steps[-1] == 19

    def test_crossing_and_convergence_in_one_step_inside_a_block(self):
        # Step 40 lies inside the block 31-62 and is the first step whose
        # change is below convergence_tol; the crossing must win.
        matrix = two_species_matrix(0.02, -0.01)
        crossing_step, tol = crossing_and_convergence_tol(matrix, [0.5, 0.5])
        assert crossing_step == 40
        config = SimulationConfig(max_steps=1000, convergence_tol=tol)
        self.assert_scan(lambda c: matrix, [1.0], config, [40])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_benchmark_grid(self, seed):
        # 400 live systems allow blocks of at most 4096 // 400 = 10 steps.
        scales = bench_grid(seed)
        family = stacked(pair_family(0.02, -0.01), scales)
        config = SimulationConfig(max_steps=10_000)
        steps = elimination_time_scan(family, self.HALF, config)
        assert max(steps) > 700
        assert steps == serial_scan(family, self.HALF, config)
        assert steps == stepwise_scan(family, self.HALF.values, config)

    @pytest.mark.parametrize("n, seed", [(3, 1), (10, 2), (30, 3), (30, 4)])
    def test_n_species_stacks(self, n, seed):
        builder = shrunk_family(random_competitive(n, 0.5, 0.5, seed))
        family = stacked(builder, np.linspace(0.05, 1.0, 48))
        phi0 = make_population(np.random.default_rng(seed).random(n) + 0.05)
        config = SimulationConfig(max_steps=2000)
        steps = elimination_time_scan(family, phi0, config)
        assert any(k is not None for k in steps)
        assert steps == serial_scan(family, phi0, config)
        assert steps == stepwise_scan(family, phi0.values, config)

    @given(
        n=st.integers(2, 30),
        live=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matmul_into_the_buffer_keeps_the_bits(self, n, live, seed):
        # The scan writes each stacked matvec into its block buffer through
        # `out=`; the per-step loop assigns a fresh result. Same bits.
        rng = np.random.default_rng(seed)
        entries = rng.normal(size=(live, n, n))
        states = np.empty((2, live, n))
        states[0] = rng.normal(size=(live, n))
        columns = states[:, :, :, None]
        np.matmul(entries, columns[0], out=columns[1])
        fresh = np.matmul(entries, states[0][:, :, None])[:, :, 0]
        assert states[1].tobytes() == fresh.tobytes()

    def test_blocks_stay_within_their_bounds(self, monkeypatch):
        shapes = counted_stop_tests(monkeypatch)
        elimination_time_scan(
            stacked(pair_family(0.02, -0.01), bench_grid(1)),
            self.HALF,
            SimulationConfig(max_steps=10_000),
        )
        n30 = stacked(shrunk_family(random_competitive(30, 0.5, 0.5, 3)), np.linspace(0.05, 1, 48))
        elimination_time_scan(n30, make_population(np.ones(30)), SimulationConfig(max_steps=2000))
        assert all(len(shape) == 3 for shape in shapes)
        blocks = [(k, live) for k, live, _ in shapes]
        assert all(k <= dynamics._MAX_BLOCK and k * live <= 4096 for k, live in blocks)
        # Both bounds are reached: the cell cap at 400 live systems, the block cap later.
        assert (10, 400) in blocks
        assert max(k for k, _ in blocks) == dynamics._MAX_BLOCK
        # The sweep's blocks are reduced species-major, some blocks of 30 species are not.
        assert {species_major(shape) for shape in shapes} == {True, False}


class TestStopTests:
    """``dynamics._stop_tests`` against the stop rule written out one state at a time.

    The draws reach both reduction orders: ``evolve``'s (K, w) blocks and
    the scan's (K, L, n) blocks, of 1 to 1,024 states and 1 to 64 species.
    """

    SPECIAL = np.array([np.nan, np.inf, -np.inf, -2e-12, -1e-12, -0.0])

    @staticmethod
    def reference(proposed, before, convergence_tol):
        crossed = np.zeros(proposed.shape[:-1], dtype=bool)
        converged = np.zeros(proposed.shape[:-1], dtype=bool)
        for state in np.ndindex(*proposed.shape[:-1]):
            crossed[state] = bool((proposed[state] < -dynamics.ZERO_TOL).any())
            change = float(np.abs(proposed[state] - before[state]).sum())
            converged[state] = change < convergence_tol
        return crossed, converged

    @given(
        n=st.sampled_from([1, 2, 3, 7, 8, 9, 30, 32, 33, 50, 64]),
        states=st.one_of(
            st.tuples(st.integers(1, 600)),
            st.tuples(st.integers(1, 16), st.integers(1, 64)),
        ),
        seed=st.integers(0, 2**32 - 1),
        special=st.sampled_from([0.0, 0.02, 0.2]),
        tol=st.sampled_from([0.0, 1e-12, "a state's row sum"]),
    )
    @settings(max_examples=300, deadline=None)
    # Each side of the rule: 256 states of 32 species are reduced species-major,
    # of 33 species or 255 states along each state.
    @example(n=32, states=(256,), seed=1, special=0.02, tol="a state's row sum")
    @example(n=33, states=(256,), seed=2, special=0.02, tol="a state's row sum")
    @example(n=32, states=(255,), seed=3, special=0.02, tol="a state's row sum")
    @example(n=2, states=(16, 32), seed=4, special=0.02, tol="a state's row sum")
    @example(n=64, states=(16, 64), seed=5, special=0.02, tol="a state's row sum")
    def test_matches_per_state_reference(self, n, states, seed, special, tol):
        # Each state's changes share one scale from 1e-16 to 1, so the
        # row sums straddle 1e-12; some entries are exact zeros, some are
        # NaN, +-inf or lie on the -ZERO_TOL boundary.
        rng = np.random.default_rng(seed)
        shape = (*states, n)
        proposed = rng.uniform(-1e-11, 1.0, shape)
        scale = 10.0 ** rng.uniform(-16, 0, (*states, 1))
        change = rng.normal(size=shape) * scale * (rng.random(shape) < 0.8)
        before = proposed - change
        for array in (proposed, before):
            poisoned = rng.random(shape) < special
            array[poisoned] = rng.choice(self.SPECIAL, size=int(poisoned.sum()))
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and fails both tests
            if tol == "a state's row sum":
                # `<` then sits on the boundary for that state.
                sums = np.abs(proposed - before).sum(axis=-1)
                finite = sums[np.isfinite(sums)]
                tol = float(rng.choice(finite)) if finite.size else 0.0
            crossed, converged = dynamics._stop_tests(proposed, before, tol)
            expected = self.reference(proposed, before, tol)
        assert crossed.shape == converged.shape == states
        assert crossed.tobytes() == expected[0].tobytes()
        assert converged.tobytes() == expected[1].tobytes()

    def test_row_sum_keeps_numpys_bits(self):
        # n = 8 states whose numpy row sum, 1 + 3 * 2**-52, is above the
        # sum taken one species at a time, 1.0: with the tolerance at the row
        # sum they have not converged, and a species-major sum would say they
        # had. The (3, 5, 8) block is reduced along each state, the others
        # species-major.
        row = np.array([1.0] + [2.0**-53] * 7)
        tol = float(row.sum())
        for states in [(3, 5), (64, 8), (256,)]:
            proposed = np.tile(row, (*states, 1))
            assert species_major(proposed.shape) == (states != (3, 5))
            before = np.zeros_like(proposed)
            species_sum = np.ascontiguousarray(np.moveaxis(proposed, -1, 0)).sum(axis=0)
            assert (species_sum < tol).all()
            crossed, converged = dynamics._stop_tests(proposed, before, tol)
            assert not crossed.any() and not converged.any()
            _, converged = dynamics._stop_tests(proposed, before, np.nextafter(tol, 2.0))
            assert converged.all()
