"""The step engine: forward runs with species elimination, the first-elimination scan, backward runs.

A forward run iterates ``phi <- M @ phi``. A step that drives a
population below ``-ZERO_TOL`` is cut at the sub-step instant of the
crossing, the extinct species is folded out of the matrix, and the run
goes on in the reduced space. Each mechanism is explained where it lives:

* ``evolve``: the forward run, its block schedule, its stop at an exact
  fixed point, and the windows in which it hands over its rows;
* ``_stop_tests``: the stop rule for a block of proposed states, shared
  by ``evolve`` and the scan;
* ``crossing_fraction``: where in a step the first population hits zero;
* ``_eliminate``: the fold of one species out of the matrix and the state;
* ``elimination_time_scan``: every member of a family run to its first
  elimination, in lockstep;
* ``evolve_backward``: how many inverse steps stay inside [0, 1].

Three invariants hold across them. Every accepted state is the matvec
the per-step loop would compute, and a matvec's bits depend only on its
input, so speculative blocks, the fixed-point stop and the lockstep scan
keep the per-step loop's outputs bit for bit. Within a step, a crossing
wins over convergence. An eliminated species never re-enters: its slot
is zero in every later row.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    ZERO_TOL,
    EvolutionMatrix,
    PopulationVector,
    _check_integer,
    _check_matrix,
    _check_tolerance,
    _derived_matrix,
    _readonly,
    negative_offdiag_count,
)
from .errors import NumericalError, ValidationError

_MAX_STEPS = 2**63 - 2  # the largest step cap whose steps, and the one past it, fit in an int64


@dataclass(frozen=True)
class SimulationConfig:
    """Run limits for the evolution engine.

    ``max_steps`` and ``record_every`` must be Python or NumPy integers
    (not bools) of at least 1, and ``convergence_tol`` a finite real
    number (not a bool) of at least 0; anything else raises
    ``ValidationError``. ``max_steps`` is at most ``2**63 - 2``, so that
    the steps up to one past it fit in an int64.
    """

    max_steps: int = 10_000
    convergence_tol: float = 1e-12
    record_every: int = 1

    def __post_init__(self) -> None:
        _check_integer("max_steps", self.max_steps, 1)
        if self.max_steps > _MAX_STEPS:
            raise ValidationError(f"max_steps must be at most {_MAX_STEPS}")
        _check_integer("record_every", self.record_every, 1)
        _check_tolerance("convergence_tol", self.convergence_tol)


@dataclass(frozen=True)
class EliminationEvent:
    """A species hit zero during step ``step_index`` at sub-step ``fraction``.

    ``row_index`` is the run's row recorded at the elimination, counted
    from its start: ``steps[row_index]`` is ``step_index`` and
    ``values[row_index]`` the interpolated state, ``species_id`` at 0.0.
    """

    step_index: int
    fraction: float
    species_id: int
    neg_offdiag_before: int
    neg_offdiag_after: int
    row_index: int


class TerminationReason(enum.Enum):
    MAX_STEPS = "MaxSteps"
    CONVERGED = "Converged"
    ALL_BUT_ONE_EXTINCT = "AllButOneExtinct"


@dataclass(frozen=True)
class BackwardReport:
    """Outcome of inverse evolution: how many steps stayed physical.

    ``horizon`` counts completed backward steps before any component left
    [0, 1]; ``offender`` is the first species out of range (None if the
    step budget ran out first).
    """

    horizon: int
    offender: int | None


def crossing_fraction(phi_before, phi_after) -> tuple[int, float] | None:
    """First zero crossing within a step, as (local index, fraction).

    ``phi_before`` and ``phi_after`` must be two 1-D arrays of one length;
    anything else raises ``ValidationError``. Among entries driven below
    ``-ZERO_TOL``, returns the one whose linear interpolation hits zero
    earliest; ties go to the lowest index. Returns None when no entry went
    negative.

    Entry i's fraction is ``before[i] / (before[i] - after[i])`` in numpy
    float64. It is clamped into [0, 1], which guards entries already at
    dust zero, as ``np.clip`` clamps: NaN and -0.0 stay as they are. The
    earliest is taken as ``np.argmin`` takes it: the first minimum, or
    the first NaN. A step usually drives one or two entries negative, so
    they are taken one at a time, which costs less than array operations
    over them and keeps their arithmetic.
    """
    before = np.asarray(phi_before, dtype=float)
    after = np.asarray(phi_after, dtype=float)
    if before.ndim != 1 or before.shape != after.shape:
        raise ValidationError(
            "a crossing needs two 1-D states of one length, "
            f"got shapes {before.shape} and {after.shape}"
        )
    index = fraction = None
    for i in (after < -ZERO_TOL).nonzero()[0].tolist():
        start = before[i]
        tau = start / (start - after[i])
        if tau < 0.0:
            tau = 0.0
        elif tau > 1.0:
            tau = 1.0
        # A later entry wins only if smaller, or NaN where the earlier is not.
        if index is None or tau < fraction or (tau != tau and fraction == fraction):
            index, fraction = i, tau
    return None if index is None else (index, float(fraction))


def _check_size(n: int, populations: PopulationVector) -> None:
    """Refuse a population whose length is not the matrix size ``n``."""
    if populations.n != n:
        raise ValidationError(f"matrix is {n}x{n} but the population has {populations.n} entries")


def _eliminate(entries: np.ndarray, phi: np.ndarray, alive: np.ndarray, local: int):
    """Drop species ``local`` from the matrix, state and ids; returns the new three.

    Row ``local`` is folded onto the diagonal: dropping it alone would
    leave each surviving column short by its entry into the extinct
    species and leak conserved mass, so what would have flowed there stays
    with its donor.
    """
    w = phi.size
    reduced = np.empty((w - 1, w - 1))
    reduced[:local, :local] = entries[:local, :local]
    reduced[:local, local:] = entries[:local, local + 1 :]
    reduced[local:, :local] = entries[local + 1 :, :local]
    reduced[local:, local:] = entries[local + 1 :, local + 1 :]
    diagonal = reduced.reshape(-1)[::w]  # (k, k) of a (w-1)-wide matrix is flat index k*w
    diagonal[:local] += entries[local, :local]
    diagonal[local:] += entries[local, local + 1 :]
    keep = np.arange(w) != local
    return reduced, phi[keep], alive[keep]


def _stop_tests(proposed: np.ndarray, before: np.ndarray, convergence_tol: float):
    """The stop rule for each state of a (..., w) block, as ``(crossed, converged)``.

    Crossed: an entry below ``-ZERO_TOL``. Converged: an L1 change from
    the state in ``before`` below ``convergence_tol``. The caller puts a
    crossing first.

    The reduction order follows the block's shape, which sets its cost: a
    block of at least 256 states of at most 32 species is reduced over its
    species one at a time, on species-major copies of both masks, and only
    the states whose every change is below the tolerance take the L1 row
    sum; any other block is reduced along each state. The two orders decide
    alike bit for bit: every term of the sum is at least 0 and rounding is
    monotone, so one term at or above the tolerance puts the sum there too,
    and NaN and inf fail both tests.
    """
    change = proposed - before
    np.abs(change, out=change)
    width = proposed.shape[-1]
    if width > 32 or proposed.size < 256 * width:
        crossed = np.logical_or.reduce(proposed < -ZERO_TOL, axis=-1)
        return crossed, np.add.reduce(change, axis=-1) < convergence_tol
    species_major = (-1, *range(proposed.ndim - 1))  # np.moveaxis costs more than a small block's test
    crossed = np.logical_or.reduce((proposed < -ZERO_TOL).transpose(species_major).copy())
    converged = np.logical_and.reduce((change < convergence_tol).transpose(species_major).copy())
    if converged.any():  # only the candidates take the L1 row sum
        converged[converged] = np.add.reduce(change[converged], axis=-1) < convergence_tol
    return crossed, converged


_MAX_BLOCK = 256  # longest speculative block of steps in `evolve` and the scan
_WINDOW_ENTRIES = 1 << 14  # about how many values of recorded rows one window of `evolve` holds
_SCAN_BLOCK_STATES = 4096  # most stacked states (steps x live systems) in one scan block


def evolve(
    matrix: EvolutionMatrix,
    populations: PopulationVector,
    config: SimulationConfig = SimulationConfig(),
) -> Iterator[
    tuple[
        np.ndarray,
        np.ndarray,
        tuple[EliminationEvent, ...],
        tuple[TerminationReason, EvolutionMatrix] | None,
    ]
]:
    """Run the evolution engine, handing its recorded rows over in windows.

    Species ids are ``0..n-1`` for an n x n ``matrix``; a ``populations``
    of another length raises ``ValidationError``. The run stops at the
    first step whose L1 change is below ``config.convergence_tol``, when
    one species remains, or after ``config.max_steps`` steps.

    Windows: a generator, which runs nothing, and raises nothing for a bad
    argument, until the first window is asked for. It yields ``(steps,
    values, events, end)`` in row order. Row k is the state ``values[k]``
    after ``steps[k]`` completed steps, n wide, zero in the slots of
    extinct species, its dust in (-ZERO_TOL, 0) floored to 0.0 (-0.0 keeps
    its sign). A run records the start, every ``config.record_every``-th
    step, one row per elimination and a last row at the final step.
    ``events`` are the eliminations whose rows fall in the window. ``end``
    is None in every window but the last, where it is ``(reason,
    final_matrix)``, the reduced matrix over the survivors in increasing id
    order; it is derived from the checked input and not checked again.
    Every window but the last is full, at ``max(_WINDOW_ENTRIES // n, 1)``
    rows, and each is fresh and read-only, so a caller that lets go of
    each window before asking for the next holds one at a time.

    Blocks: from the current state, K matvecs into one buffer, all decided
    by one ``_stop_tests`` call. The steps before the first stopping step
    are accepted, that step is handled as the per-step loop would handle
    it, and the steps past it are discarded. K starts at 1 and doubles
    after each block with no stop, up to 256 and never past the step cap.
    After an elimination at block index ``stop``, the block ran ``stop``
    clean steps, so the next one has ``min(stop + 1, 256)``: a step that
    crosses again right after an elimination runs alone.

    Eliminations: the state is interpolated to the ``crossing_fraction``
    instant, the species set to 0.0 and folded out by ``_eliminate``, and
    the interrupted step runs again on the reduced system. So crossings in
    one step resolve one at a time, and the step count advances only on
    completed steps: an elimination's fraction τ is not counted, so every
    later row is τ of a step ahead of its label. Each event's negative
    off-diagonal counts are those of the matrix before and after its fold.
    ``negative_offdiag_count`` counts the input matrix once, and each fold
    subtracts the negatives of the removed row and column off the
    diagonal: the fold adds the extinct species' row onto the diagonal
    and leaves every other off-diagonal entry as it was.

    Fixed point: when the last state of a clean block has the bits of the
    state before it, every later state would too. The run then stops
    stepping, records its remaining rows from that state and ends at
    ``config.max_steps`` with ``MaxSteps``. Only a run with
    ``convergence_tol`` 0 gets there: with a positive one, a step with no
    change converges.
    """
    n = matrix.n
    _check_size(n, populations)
    entries = matrix.entries  # read-only: every fold builds a new array
    phi = populations.values  # read-only: the first block copies it
    alive = np.arange(n, dtype=np.intp)  # local index -> species id
    every = config.record_every
    capacity = max(_WINDOW_ENTRIES // n, 1)  # rows per window
    values = np.zeros((capacity, n))  # zero-filled: extinct slots rely on it
    steps = np.empty(capacity, dtype=int)
    events: list[EliminationEvent] = []  # the window's events
    rows = 0  # rows written to the window
    start = 0  # the run's row index of the window's first row

    def window(end=None):
        """The rows written so far as a read-only window, their dust floored, and ``end``."""
        written_steps, written = steps[:rows], values[:rows]
        # Only sub-tolerance float dust is floored; a genuine negative entry
        # would be a bug and must stay visible. -0.0 is not below 0.0 and stays.
        np.copyto(written, 0.0, where=(written < 0.0) & (written > -ZERO_TOL))
        for column in (written_steps, written):
            column.flags.writeable = False
        return written_steps, written, tuple(events), end

    def write(recorded_steps: np.ndarray, states: np.ndarray) -> None:
        nonlocal rows
        end = rows + len(recorded_steps)
        values[rows:end][:, alive] = states
        steps[rows:end] = recorded_steps
        rows = end

    def hand_over():
        """Hand the full window over and open the next."""
        nonlocal values, steps, events, rows, start
        yield window()
        # Drop the full window before the next exists, so that a caller
        # that has let go of it holds one window at a time.
        del values, steps
        start, rows, events = start + rows, 0, []
        values, steps = np.zeros((capacity, n)), np.empty(capacity, dtype=int)

    def record(recorded_steps: np.ndarray, states: np.ndarray):
        """Append rows, handing each window over full as they spill past it."""
        while len(recorded_steps) > capacity - rows:
            room = capacity - rows
            write(recorded_steps[:room], states[:room])
            yield from hand_over()
            recorded_steps, states = recorded_steps[room:], states[room:]
        write(recorded_steps, states)

    yield from record(np.zeros(1, dtype=int), phi[None, :])
    neg_after = negative_offdiag_count(entries)  # of the current matrix
    t = 0
    block = 1
    while True:
        if len(alive) == 1:
            reason = TerminationReason.ALL_BUT_ONE_EXTINCT
            break
        if t >= config.max_steps:
            reason = TerminationReason.MAX_STEPS
            break
        k = min(block, config.max_steps - t)
        states = np.empty((k + 1, phi.size))  # states[j] holds phi after t + j steps
        states[0] = phi
        previous = states[0]
        for current in states[1:]:  # one row view per matvec
            entries.dot(previous, out=current)
            previous = current
        crossed, converged = _stop_tests(states[1:], states[:-1], config.convergence_tol)
        stops = crossed | converged
        stop = int(stops.argmax())
        if not stops[stop]:
            accepted = k
        else:
            accepted = stop if crossed[stop] else stop + 1  # a crossing step does not complete
        first = t + every - t % every  # next step to record
        if first <= t + accepted:
            recorded = np.arange(first, t + accepted + 1, every)
            yield from record(recorded, states[recorded - t])
        t += accepted
        phi = states[accepted]
        if not stops[stop]:
            if phi.tobytes() == states[accepted - 1].tobytes():
                # The fixed point: record the rest of the run from phi, a window at a time.
                first = t + every - t % every
                while first <= config.max_steps:
                    end = min(first + capacity * every, config.max_steps + 1)
                    recorded = np.arange(first, end, every)
                    yield from record(recorded, np.broadcast_to(phi, (len(recorded), phi.size)))
                    first = end
                t = config.max_steps
                reason = TerminationReason.MAX_STEPS
                break
            block = min(2 * block, _MAX_BLOCK)
            continue
        if not crossed[stop]:
            reason = TerminationReason.CONVERGED
            break
        after = states[stop + 1]
        local, tau = crossing_fraction(phi, after)
        # (1 - tau) * phi + tau * after, in the block buffer, which is not read again
        phi *= 1.0 - tau
        after *= tau
        phi += after
        phi[local] = 0.0
        if rows == capacity:  # the event row opens a window
            yield from hand_over()
        row = start + rows
        values[rows, alive] = phi
        steps[rows] = t
        rows += 1
        # Of the off-diagonal entries, the fold only removes row and column
        # `local`, so it loses their negatives off the diagonal.
        lost = np.count_nonzero(entries[local] < -ZERO_TOL)
        lost += np.count_nonzero(entries[:, local] < -ZERO_TOL)
        if entries[local, local] < -ZERO_TOL:
            lost -= 2  # the diagonal entry, counted in both
        neg_before, neg_after = neg_after, neg_after - int(lost)
        events.append(EliminationEvent(t, tau, int(alive[local]), neg_before, neg_after, row))
        entries, phi, alive = _eliminate(entries, phi, alive, local)
        # Re-evaluate the interrupted step on the reduced system.
        block = min(stop + 1, _MAX_BLOCK)

    if steps[rows - 1] != t:  # a row at step t is always the current state
        yield from record(np.array([t]), phi[None, :])
    yield window((reason, _derived_matrix(entries)))


def evolve_backward(matrix: EvolutionMatrix, phi0: PopulationVector, max_steps: int) -> BackwardReport:
    """Run the evolution backward until some population leaves [0, 1].

    Each backward step solves ``M x = phi`` rather than forming the
    inverse, which is the same arithmetic but better behaved for nearly
    singular matrices. Transient modes grow under the inverse map, so a
    generic start can only be evolved backward finitely far before the
    population reading breaks down. ``max_steps`` must be an integer of at
    least 1, as in ``SimulationConfig``; anything else raises
    ``ValidationError``.
    """
    _check_size(matrix.n, phi0)
    _check_integer("max_steps", max_steps, 1)
    if abs(float(np.linalg.det(matrix.entries))) <= 1e-12:
        raise NumericalError("evolution matrix is singular; cannot step backward")
    state = phi0.values
    horizon = 0
    for _ in range(max_steps):
        candidate = np.linalg.solve(matrix.entries, state)
        out_of_range = np.flatnonzero((candidate < -ZERO_TOL) | (candidate > 1.0 + ZERO_TOL))
        if out_of_range.size:
            return BackwardReport(horizon=horizon, offender=int(out_of_range[0]))
        state = candidate
        horizon += 1
    return BackwardReport(horizon=horizon, offender=None)


def elimination_time_scan(
    family,
    phi0: PopulationVector,
    config: SimulationConfig = SimulationConfig(),
) -> list[int | None]:
    """Steps to first elimination of each matrix in ``family`` (S, n, n), all from ``phi0``.

    The whole stack goes through ``EvolutionMatrix``'s check at once, and no
    ``EvolutionMatrix`` is built: a failing family raises the message of its
    first failing member. A family that is not a stack of square matrices,
    or whose matrices do not match ``phi0`` in size, raises
    ``ValidationError``. A member's result is the number of steps it
    completed before its first crossing; convergence or the step cap gives
    None. So the steps are those of each member's first event under
    ``evolve``, whose blocks the scan runs with three differences: the L
    members still running advance in lockstep, as K stacked matvecs into
    one (K+1, L, n) buffer; K doubles after every block and K * L stays
    within 4,096 states (K is 1 when L alone exceeds it); and the members
    that stopped leave the stack once per block.
    """
    entries = _readonly(family, "matrix family")
    if entries.ndim != 3 or entries.shape[1] != entries.shape[2] or entries.shape[1] < 1:
        raise ValidationError("a matrix family must be a stack of nonempty square matrices")
    _check_matrix(entries, 1.0, "evolution matrix")
    _check_size(entries.shape[1], phi0)
    steps: list[int | None] = [None] * entries.shape[0]
    if phi0.n == 1:
        return steps
    live = np.arange(entries.shape[0])
    phi = np.repeat(phi0.values[None, :], entries.shape[0], axis=0)
    t = 0
    block = 1
    while live.size and t < config.max_steps:
        k = min(block, config.max_steps - t, max(1, _SCAN_BLOCK_STATES // live.size))
        states = np.empty((k + 1, *phi.shape))  # states[j] holds phi after t + j steps
        states[0] = phi
        # Each state as an (n, 1) column. Writing the matmul through `out=`
        # gives the same bits as assigning its result: the same BLAS path.
        columns = states[:, :, :, None]
        for j in range(k):
            np.matmul(entries, columns[j], out=columns[j + 1])
        crossed, converged = _stop_tests(states[1:], states[:-1], config.convergence_tol)
        stops = crossed | converged  # (k, L)
        phi = states[k]
        if stops.any():
            first = stops.argmax(axis=0)  # each system's first stopping step in the block
            systems = np.arange(live.size)
            stopped = stops[first, systems]
            hit = stopped & crossed[first, systems]  # a crossing wins over convergence
            for system, step in zip(live[hit].tolist(), (t + first[hit]).tolist()):
                steps[system] = step
            running = ~stopped
            live, entries, phi = live[running], entries[running], phi[running]
        t += k
        block = min(2 * block, _MAX_BLOCK)
    return steps
