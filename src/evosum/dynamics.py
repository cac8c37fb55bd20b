"""Forward evolution with species elimination, plus backward runs.

The engine iterates ``phi <- M @ phi``. Negative transfers can drive a
population below zero, which is unphysical; the step is then stopped at
the exact sub-step crossing instant (the update is linear in phi, so the
crossing time is the plain linear interpolation fraction), the extinct
species' row and column are removed, and evolution continues in the
reduced space. Removing row i would leave each surviving column j short
by its entry into i, leaking conserved mass, so that entry is folded back
onto the donor's diagonal: resource that would have flowed to the extinct
species stays put.

After an elimination the interrupted step is re-evaluated from the
interpolated state on the reduced system, so simultaneous crossings
resolve one at a time (smallest crossing fraction first, ties by lowest
species id) and the step counter only advances on completed steps.

The stop rule decides, for each proposed state, whether it crossed (an
entry below ``-ZERO_TOL``) and whether it converged (an L1 change below
``convergence_tol``); its callers apply the order, a crossing before
convergence. It has one implementation per caller, with the same
results bit for bit. ``evolve`` tests its (K, w) blocks, at most 256
states and often fewer than their w species, with ``_stop_tests``: one
reduction along each state. The scan tests its (K, L, n) blocks, up to
4096 states of often two species, with ``_scan_stop_tests``, which
reduces over the species one at a time and takes the L1 row sum only
for the states that may have converged: a reduction along each of
thousands of short states would make one inner-loop call per state.
``_eliminate`` is the elimination step, written once: drop the row and
column, fold the row onto the diagonals, drop the state entry and the
id. Only ``evolve`` eliminates. At width w the step costs one
(w-1)x(w-1) allocation filled by four slice copies, an O(w) diagonal
update through a strided view, and two O(w) concatenations for the
state and the ids.

``evolve`` runs the steps in speculative blocks rather than one Python
iteration per step. A block of K steps is K matvecs into one buffer,
then one vectorized test of all K proposed states for a crossing and for
convergence. Steps before the first stopping step are accepted as they
stand; the stopping step is handled under the per-step rules (a crossing
wins over convergence), and the steps computed past it are discarded. K
starts at 1 and doubles after each clean block, up to 256. After an
elimination found at block index ``stop`` (the block ran ``stop`` clean
steps first), the next block has ``stop + 1`` steps, capped at 256; an
elimination in the same step as the one before has ``stop = 0``, so the
re-evaluated step runs alone. Every accepted state is the same matvec
result the per-step loop would compute, so the outputs are identical bit
for bit. Up to a fixed point, the cost is one matvec call per step,
including the discarded ones, and a fixed handful of vectorized tests
per block. Per elimination it is one ``crossing_fraction`` call, the
interpolation, the fold, and the count of negative transfers in the
removed row and column: ``negative_offdiag_count`` runs once per run, at
the first elimination, and each fold then subtracts those entries, since
every other off-diagonal entry is kept.

A run can reach an exact fixed point: a step whose result has the bits
of its input. After each clean block ``evolve`` compares the bytes of
its last state with those of the state before it, an O(width) test.
A matvec's result depends only on the bits of its input (the block
stepping already relies on this), so on a match every later state is
that state too. It has no entry below ``-ZERO_TOL``, since it was
accepted, so nothing can cross again. ``evolve`` then stops stepping: it
records the remaining ``record_every``-th steps and the last row at the
step cap straight from that state, at most one window of rows at a
time, and ends with ``MaxSteps``. From the fixed point on, the
cost is O(recorded rows), with no matvec and no stop test. The L1 change
of such a step is exactly 0, so with a ``convergence_tol`` above 0 the
run has already stopped there as ``Converged``; only a run with
``convergence_tol`` 0, which runs to its step cap, reaches this path.

``evolve`` is a generator that hands its recorded rows over in windows,
so a run holds about one window of rows (16,384 values, 128 KiB) however
long it runs. A window is two columns, one entry per recorded row: the
step and the full-length state (reduced states embedded back, with zeros
in the slots of extinct species), plus the eliminations whose rows fall
in it and the run's end, which is ``None`` in every window but the last.
Each elimination is stored once, as an ``EliminationEvent`` that names
its row, counted from the start of the run. Rows are embedded as they
are recorded, straight into the window's zero-filled (capacity, n)
buffer beside its steps buffer, where capacity is ``16_384 // n`` rows
and at least one. A full window is handed over when the next row does
not fit, and the rows go on in a fresh buffer; the rows of one block may
fill several windows in turn. The last window is handed over when the
run ends, and its end is the exit reason and the reduced matrix; the
generator returns nothing. The sub-tolerance dust in (-ZERO_TOL, 0) of a
window's rows is floored to 0.0 once, when it is handed over, by one
``np.copyto`` over the whole window (-0.0 is not below 0.0 and keeps its
sign). A run records the start, every ``record_every``-th step, one row
per elimination and a last row at the final step. Once eliminated, a
species never re-enters: its slot stays zero for the rest of the run.
The reduced matrix the run ends with is derived from a checked matrix,
so it is not checked again: rounding in the fold may move a column sum
past the input tolerance.

``elimination_time_scan`` needs only the step of each system's first
elimination, so it does not run ``evolve`` per matrix. It takes the
whole family as one (S, n, n) array, checks every member with one
column-sum test over the stack (an ``EvolutionMatrix`` is built only for
the first member that fails, to raise its message), and advances every
live system in lockstep, in speculative blocks as ``evolve`` does: K
stacked matvecs into one buffer, then one ``_scan_stop_tests`` call on
all of the block's states. Each system stops at its first elimination, at
convergence or at the step cap, under ``evolve``'s rules in ``evolve``'s
order: its first stopping step in the block decides, and the systems
that stopped leave the stack once per block. K starts at 1 and doubles
up to 256, never past the step cap, with at most 4096 stacked states (K
times the live systems) per block. Every state is the stacked matvec the
per-step loop would compute, so the steps are identical. The cost is one
stacked matvec per step of the slowest live system, including the steps
computed past a stop, plus a fixed handful of vectorized tests per
block; nothing is recorded.
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
    _check_tolerance,
    _column_sums,
    _derived_matrix,
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
    ``ValidationError``. ``max_steps`` is also at most ``2**63 - 2``:
    recorded steps are int64, and ``evolve`` takes ranges of steps up to
    ``max_steps + 1``. ``record_every`` has no upper bound, since a row is
    recorded only at a step up to ``max_steps``.
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

    ``row_index`` is the row recorded at the elimination, counted from the
    start of the run over all of ``evolve``'s windows; the event comes in
    the window that holds that row. In the run's rows, ``steps[row_index]``
    is ``step_index`` and ``values[row_index]`` is the interpolated state,
    with ``species_id`` at exactly 0.0.
    """

    step_index: int
    fraction: float
    species_id: int
    neg_offdiag_before: int
    neg_offdiag_after: int
    row_index: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValidationError(f"crossing fraction {self.fraction} outside [0, 1]")
        if self.neg_offdiag_after > self.neg_offdiag_before:
            raise ValidationError("dimensional reduction cannot add negative transfers")


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

    Among entries driven below ``-ZERO_TOL``, returns the one whose linear
    interpolation hits zero earliest; ties go to the lowest index. Returns
    None when no entry went negative.
    """
    before = np.asarray(phi_before, dtype=float)
    after = np.asarray(phi_after, dtype=float)
    negative = np.flatnonzero(after < -ZERO_TOL)
    if negative.size == 0:
        return None
    start = before[negative]
    taus = start / (start - after[negative])
    # Clamp to [0, 1], which guards entries already at (dust) zero, as
    # np.clip does: NaN and -0.0 stay as they are.
    taus[taus < 0.0] = 0.0
    taus[taus > 1.0] = 1.0
    k = int(np.argmin(taus))  # argmin takes the first minimum: lowest id wins ties
    return int(negative[k]), float(taus[k])


def _check_size(n: int, populations: PopulationVector) -> None:
    """Refuse a population whose length is not the matrix size ``n``."""
    if populations.n != n:
        raise ValidationError(f"matrix is {n}x{n} but the population has {populations.n} entries")


def _drop(values: np.ndarray, local: int) -> np.ndarray:
    return np.concatenate((values[:local], values[local + 1 :]))


def _eliminate(entries: np.ndarray, phi: np.ndarray, alive: np.ndarray, local: int):
    """Drop species ``local`` from the matrix, state and ids, folding its row onto the diagonals.

    Returns new ``(entries, phi, alive)``. The reduced matrix is one
    allocation filled by four slice copies; the fold adds the removed row,
    less its diagonal entry, onto the diagonal through a strided view.
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
    return reduced, _drop(phi, local), _drop(alive, local)


def _negatives_removed(entries: np.ndarray, local: int) -> int:
    """Off-diagonal entries below ``-ZERO_TOL`` in row or column ``local``.

    ``_eliminate`` keeps every other off-diagonal entry as it is and only
    changes diagonals, so the reduced matrix has exactly this many fewer.
    The row and column share only the diagonal entry, counted in neither.
    """
    row = entries[local] < -ZERO_TOL
    column = entries[:, local] < -ZERO_TOL
    return int(np.count_nonzero(row)) + int(np.count_nonzero(column)) - 2 * int(row[local])


def _stop_tests(proposed: np.ndarray, before: np.ndarray, convergence_tol: float):
    """The stop rule for each state in a (K, w) block of ``evolve``, as ``(crossed, converged)``.

    ``proposed`` and ``before`` hold one state per row; both results have
    one entry per row. Crossed: an entry below ``-ZERO_TOL``. Converged:
    an L1 change from ``before`` below ``convergence_tol``. The caller puts
    a crossing first. Each test is one reduction along each row, which
    suits ``evolve``'s blocks: they often hold fewer states than species.
    """
    crossed = (proposed < -ZERO_TOL).any(axis=-1)
    change = proposed - before
    converged = np.abs(change, out=change).sum(axis=-1) < convergence_tol
    return crossed, converged


def _scan_stop_tests(proposed: np.ndarray, before: np.ndarray, convergence_tol: float):
    """``_stop_tests`` for the scan's (K, L, n) blocks, reduced over species one at a time.

    The scan stacks many narrow states: on a 400-scale sweep, 4,000 states
    of 2 species. A reduction along the last axis makes one inner-loop
    call per state, so both masks are first copied species-major, as
    (n, K, L), and reduced over the leading axis: an OR over species for
    the crossing, an AND of ``|change| < convergence_tol`` for the states
    that may have converged. Only those candidates take the L1 row sum of
    ``_stop_tests``, whose bits a species-major float sum would not keep.
    The results are ``_stop_tests``'s, bit for bit: every term of the sum
    is at least 0 and rounding is monotone, so a state with one term at or
    above the tolerance has a sum at or above it too. NaN and inf fail
    both tests either way. ``evolve`` keeps ``_stop_tests``: its blocks
    hold at most 256 states, often fewer than the species in each, and
    there one reduction per state makes fewer inner-loop calls than one
    per species.
    """
    crossed = np.logical_or.reduce((proposed < -ZERO_TOL).transpose(2, 0, 1).copy())
    change = proposed - before
    np.abs(change, out=change)
    converged = np.logical_and.reduce((change < convergence_tol).transpose(2, 0, 1).copy())
    if converged.any():  # only the candidates take the L1 row sum
        converged[converged] = change[converged].sum(axis=-1) < convergence_tol
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

    A generator: it yields ``(steps, values, events, end)`` windows in row
    order, so ``for steps, values, events, end in evolve(...)`` reads the
    whole run. ``end`` is None in every window but the last, whose ``end``
    is ``(reason, final_matrix)``. Nothing runs, and a bad argument raises
    nothing, until the first window is asked for.

    Species ids are ``0..n-1`` for an n x n ``matrix``. Row k of a window
    is the full-length state ``values[k]`` (n wide; extinct slots hold
    zero) after ``steps[k]`` completed steps. A run records the start,
    every ``config.record_every``-th step, one row per elimination and a
    last row at the final step. ``events`` are the eliminations whose rows
    fall in the window, in row order; each names its row by
    ``row_index``, counted from the start of the run. Each window is
    fresh and read-only, and every window but the last is full: it holds
    ``max(_WINDOW_ENTRIES // n, 1)`` rows, about 16,384 values, so the
    rows one block records may spill over several windows. The dust in
    (-ZERO_TOL, 0) of a window's rows is floored to 0.0, in one pass over
    the window, when it is handed over. A caller that lets go of each
    window before asking for the next holds one window at a time.
    ``final_matrix`` is the reduced matrix the run ended with; its rows
    and columns are the survivors, the ids that no event names, in
    increasing order. A ``populations`` of another length than n raises
    ``ValidationError``.

    Stops when the L1 step-to-step change drops below
    ``config.convergence_tol``, when a single species remains, or after
    ``config.max_steps`` completed steps, whichever comes first.

    Steps run in speculative blocks: K matvecs into a ``(K+1, width)``
    buffer, then one vectorized test of every step in the block for a
    crossing and for convergence. The steps before the first stopping
    step are accepted; at that step the crossing wins over convergence,
    exactly as if the steps ran one by one, and the steps computed past it
    are discarded. K doubles after each block without a stop, up to 256,
    never past the step cap. After an elimination at block index ``stop``
    the next block has ``min(stop + 1, 256)`` steps, so a step that is
    re-evaluated after an elimination in the same step runs alone.
    Up to a fixed point, the cost is one matvec call per step, including
    the discarded ones, and per elimination one ``crossing_fraction``
    call, one slice-copy fold (one copy of the reduced matrix) and
    O(width) bookkeeping. The negative off-diagonal count of each event
    is kept incrementally: ``negative_offdiag_count`` runs once per run,
    at the first elimination.

    When the last step of a clean block has the bits of the step before
    it, the run is at an exact fixed point, and every later step would
    have those bits too. The run then stops stepping: the remaining rows
    are recorded from that state and the run ends at ``config.max_steps``
    with ``MaxSteps``, as the steps would have. From there the cost is
    O(recorded rows). Only a run with ``convergence_tol`` 0 gets there;
    with a positive tolerance the step with zero change converges.
    """
    n = matrix.n
    _check_size(n, populations)
    entries = np.array(matrix.entries)
    phi = np.array(populations.values)
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

    def record(recorded_steps: np.ndarray, states: np.ndarray):
        """Append rows, handing each window over full as they spill past it."""
        nonlocal values, steps, events, rows, start
        while len(recorded_steps) > capacity - rows:
            room = capacity - rows
            write(recorded_steps[:room], states[:room])
            yield window()
            # Drop the full window before the next exists, so that a caller
            # that has let go of it holds one window at a time.
            del values, steps
            start, rows, events = start + rows, 0, []
            values, steps = np.zeros((capacity, n)), np.empty(capacity, dtype=int)
            recorded_steps, states = recorded_steps[room:], states[room:]
        write(recorded_steps, states)

    yield from record(np.zeros(1, dtype=int), phi[None, :])
    neg_after = None  # negative off-diagonal count, counted in full at the first fold only
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
                # A step reproduced its input bit for bit, so every later step
                # would too: record the rest of the run from phi, at most a
                # window of rows per call, and stop at the cap.
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
        if neg_after is None:
            neg_after = negative_offdiag_count(entries)
        neg_before, species = neg_after, int(alive[local])
        neg_after = neg_before - _negatives_removed(entries, local)
        event = EliminationEvent(t, tau, species, neg_before, neg_after, start + rows)
        yield from record(np.array([t]), phi[None, :])
        events.append(event)  # after the hand-over: the event row may open a window
        entries, phi, alive = _eliminate(entries, phi, alive, local)
        # Re-evaluate the interrupted step on the reduced system. The block
        # that stopped ran `stop` clean steps first, so the next one may too.
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
    a = np.asarray(matrix.entries, dtype=float)
    _check_size(matrix.n, phi0)
    _check_integer("max_steps", max_steps, 1)
    if abs(float(np.linalg.det(a))) <= 1e-12:
        raise NumericalError("evolution matrix is singular; cannot step backward")
    state = np.array(phi0.values)
    horizon = 0
    for _ in range(max_steps):
        candidate = np.linalg.solve(a, state)
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

    ``family[s]`` is checked as an ``EvolutionMatrix`` would check it, but
    for the whole stack at once: one column-sum test over all S members.
    Only when some member fails is ``EvolutionMatrix`` built, for the first
    failing member, which raises its message (the first non-finite entry,
    else the column furthest off). A family that is not a stack of square
    matrices, or whose matrices do not match ``phi0`` in size, raises
    ``ValidationError`` too.

    All members advance in lockstep from ``phi0`` under ``evolve``'s stop
    rules in ``evolve``'s order: the step cap, then a crossing (the
    member's result is the number of completed steps), then convergence.
    The cap and convergence give None rather than failing the whole scan,
    so the steps equal those of the first event of ``evolve`` on each
    matrix. A block of K steps is K stacked matvecs into one ``(K+1, L,
    n)`` buffer for the L members still running, then one
    ``_scan_stop_tests`` call on all K * L proposed states. Each member
    stops at its first stopping step in the block, and the members that
    stopped leave the stack. K doubles from 1 up to 256, never past the
    step cap, and K * L stays within 4096 (K is 1 when L alone exceeds
    it). The cost is one stacked matvec per step of the slowest member,
    including the steps computed past a stop, and one vectorized stop test
    per block. Nothing is recorded.
    """
    entries = np.ascontiguousarray(family, dtype=float)
    if entries.ndim != 3 or entries.shape[1] != entries.shape[2] or entries.shape[1] < 1:
        raise ValidationError("a matrix family must be a stack of nonempty square matrices")
    _, ok = _column_sums(entries, 1.0)
    if not ok.all():
        EvolutionMatrix(entries[int(ok.argmin())])  # raises the first failing member's message
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
        crossed, converged = _scan_stop_tests(states[1:], states[:-1], config.convergence_tol)
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
