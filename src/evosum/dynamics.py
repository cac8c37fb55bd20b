"""Forward evolution with species elimination, insertion, and backward runs.

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

Both halves of that mechanism are written once. ``_stop_tests`` is the
stop rule on a stack of proposed states (a crossing is an entry below
``-ZERO_TOL``, convergence an L1 change below ``convergence_tol``); its
callers apply the order, a crossing before convergence. ``_eliminate``
is the elimination step: drop the row and column, fold the row onto the
diagonals, drop the state entry and the id. ``evolve`` and the scan
share the stop rule; ``evolve`` and ``eliminate_species`` share the
elimination step.

``evolve`` runs the steps in speculative blocks rather than one Python
iteration per step. A block of K steps is K matvecs into one buffer,
then one vectorized test of all K proposed states for a crossing and for
convergence. Steps before the first stopping step are accepted as they
stand; the stopping step is handled under the per-step rules (a crossing
wins over convergence), and the steps computed past it are discarded. K
restarts at 1 after every elimination and doubles after each clean block,
up to 256. Every accepted state is the same matvec result the per-step
loop would compute, so the outputs are identical bit for bit. The cost
is one matvec call per step, including the discarded ones, and one
``crossing_fraction`` call per elimination.

The trajectory is stored as columns, one entry per recorded row: step,
crossing fraction, the full-length state (reduced states embedded back,
with zeros in the slots of extinct species) and the eliminated species.
Once eliminated, a species never respawns on its own; it can only
re-enter through ``add_species``.

``elimination_time_scan`` needs only the step of each system's first
elimination, so it does not run ``evolve`` per matrix. It stacks the
whole family and advances every system in lockstep, one stacked matvec
per step, and each system stops at its first elimination, at
convergence or at the step cap, under ``evolve``'s rules in ``evolve``'s
order. The cost is about one stacked matvec per step of the slowest
system, and nothing is recorded.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ZERO_TOL, EvolutionMatrix, PopulationVector, make_population, negative_offdiag_count
from .errors import (
    BadColumnSumError,
    BadFractionError,
    DimensionMismatchError,
    LastSpeciesError,
    NotExtinctError,
    SingularMatrixError,
    ValidationError,
)


def _check_integer(name: str, value) -> None:
    # A float count passes a `< 1` test, then fails inside the engine as a
    # bare TypeError or IndexError. Bools are refused as in scenario files.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_step_count(name: str, value) -> None:
    _check_integer(name, value)
    if value < 1:
        raise ValidationError(f"{name} must be at least 1")


@dataclass(frozen=True)
class SimulationConfig:
    """Run limits for the evolution engine.

    ``max_steps`` and ``record_every`` must be Python or NumPy integers
    (not bools) of at least 1, and ``convergence_tol`` a finite real
    number (not a bool) of at least 0; anything else raises
    ``ValidationError``.
    """

    max_steps: int = 10_000
    convergence_tol: float = 1e-12
    record_every: int = 1

    def __post_init__(self) -> None:
        _check_step_count("max_steps", self.max_steps)
        _check_step_count("record_every", self.record_every)
        tol = self.convergence_tol
        # An infinite tolerance would stop every run as converged after one step.
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise ValidationError(f"convergence_tol must be a finite nonnegative number, got {tol!r}")


@dataclass(frozen=True)
class ActiveSystem:
    """A (possibly reduced) evolving system plus its bookkeeping.

    ``alive_ids`` maps local indices to the original species ids;
    ``universe_size`` is the total number of ids ever allocated, so that
    species inserted after an elimination still get a fresh id.
    """

    matrix: EvolutionMatrix
    populations: PopulationVector
    alive_ids: tuple[int, ...] | None = None
    universe_size: int | None = None

    def __post_init__(self) -> None:
        n = self.matrix.n
        alive = self.alive_ids
        if alive is None:
            alive = tuple(range(n))
        else:
            alive = tuple(int(i) for i in alive)
        object.__setattr__(self, "alive_ids", alive)
        size = self.universe_size
        if size is None:
            size = (alive[-1] + 1) if alive else 0
        object.__setattr__(self, "universe_size", int(size))
        if len(self.populations) != n or len(alive) != n:
            raise DimensionMismatchError(
                f"matrix is {n}x{n} but populations/alive_ids have lengths "
                f"{len(self.populations)}/{len(alive)}"
            )
        if any(b <= a for a, b in zip(alive, alive[1:])):
            raise ValidationError("alive_ids must be strictly increasing")
        if alive and (alive[0] < 0 or alive[-1] >= self.universe_size):
            raise ValidationError("alive_ids must lie within the id universe")

    @property
    def n(self) -> int:
        return self.matrix.n


@dataclass(frozen=True)
class EliminationEvent:
    """A species hit zero during step ``step_index`` at sub-step ``fraction``."""

    step_index: int
    fraction: float
    species_id: int
    neg_offdiag_before: int
    neg_offdiag_after: int

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
class Trajectory:
    """Recorded rows of one run as read-only columns of equal length T.

    Row k is the full-length state ``values[k]`` (shape (T, N); extinct
    slots hold zero) after ``steps[k]`` completed steps. ``fractions[k]``
    is 0 on ordinary rows and the interpolated crossing fraction on
    elimination rows, where ``event_species[k]`` is the eliminated
    species id; it is -1 on ordinary rows. Rows keep raw values; only
    ``final_system`` re-projects the terminal state onto the simplex.
    """

    steps: np.ndarray
    fractions: np.ndarray
    values: np.ndarray
    event_species: np.ndarray
    events: tuple[EliminationEvent, ...]
    terminated_reason: TerminationReason
    final_system: ActiveSystem


@dataclass(frozen=True)
class BackwardReport:
    """Outcome of inverse evolution: how many steps stayed physical.

    ``horizon`` counts completed backward steps before any component left
    [0, 1]; ``offender`` is the first species out of range (None if the
    step budget ran out first). ``endpoint`` is the state after the last
    valid backward step, handy for forward round-trip checks.
    """

    horizon: int
    offender: int | None
    endpoint: np.ndarray


@dataclass(frozen=True)
class ScanRow:
    """Steps to first elimination for one coupling scale; None if none occurred."""

    scale: float
    steps: int | None


def step(matrix: EvolutionMatrix, phi) -> np.ndarray:
    """One evolution step ``M @ phi``.

    The result conserves the total but is not forced onto the simplex:
    entries may come out negative, and it is the caller's job to detect
    and handle such crossings.
    """
    values = np.asarray(phi, dtype=float)
    if values.ndim != 1 or values.size != matrix.n:
        raise DimensionMismatchError(
            f"matrix is {matrix.n}x{matrix.n} but population has shape {values.shape}"
        )
    return matrix.entries @ values


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
    taus = before[negative] / (before[negative] - after[negative])
    taus = np.clip(taus, 0.0, 1.0)  # guards entries already at (dust) zero
    k = int(np.argmin(taus))  # argmin takes the first minimum: lowest id wins ties
    return int(negative[k]), float(taus[k])


def _eliminate(entries: np.ndarray, phi: np.ndarray, alive, local: int):
    """Drop species ``local`` from the matrix, state and ids, folding its row onto the diagonals.

    Returns new ``(entries, phi, alive)``; ``alive`` keeps its sequence type.
    """
    reduced = np.delete(np.delete(entries, local, axis=0), local, axis=1)
    reduced[np.diag_indices_from(reduced)] += np.delete(entries[local], local)
    return reduced, np.delete(phi, local), alive[:local] + alive[local + 1 :]


def _stop_tests(proposed: np.ndarray, before: np.ndarray, convergence_tol: float):
    """The stop rule for each row of (S, n) states, as ``(crossed, converged)``.

    Crossed: an entry below ``-ZERO_TOL``. Converged: an L1 change from
    ``before`` below ``convergence_tol``. The caller puts a crossing first.
    """
    crossed = (proposed < -ZERO_TOL).any(axis=1)
    converged = np.abs(proposed - before).sum(axis=1) < convergence_tol
    return crossed, converged


def eliminate_species(system: ActiveSystem, local_index: int) -> ActiveSystem:
    """Remove an extinct species and rebalance the conserved columns.

    The species' population must already be zero (within ``ZERO_TOL``).
    Surviving populations pass through unchanged; they already carry the
    whole total.
    """
    n = system.n
    if not 0 <= local_index < n:
        raise DimensionMismatchError(f"local index {local_index} outside 0..{n - 1}")
    if n == 1:
        raise LastSpeciesError("cannot eliminate the only remaining species")
    pop = float(system.populations.values[local_index])
    if abs(pop) > ZERO_TOL:
        raise NotExtinctError(
            f"species at local index {local_index} has population {pop!r}, not zero"
        )
    reduced, survivors, alive = _eliminate(
        system.matrix.entries, system.populations.values, system.alive_ids, local_index
    )
    return ActiveSystem(
        matrix=EvolutionMatrix(reduced),
        populations=PopulationVector(survivors),
        alive_ids=alive,
        universe_size=system.universe_size,
    )


def add_species(
    system: ActiveSystem,
    couplings_in,
    couplings_out,
    self_rate: float,
    seed_fraction: float,
) -> ActiveSystem:
    """Insert a new species (a mutation) and rebalance the columns.

    ``couplings_in[j]`` is the per-step flow from existing species j into
    the newcomer; j's diagonal drops by the same amount so its column
    still sums to one. The new column (``couplings_out`` plus
    ``self_rate``) must itself sum to one. The newcomer starts with
    ``seed_fraction`` of the total; existing populations scale down by
    ``1 - seed_fraction``.
    """
    c_in = np.asarray(couplings_in, dtype=float)
    c_out = np.asarray(couplings_out, dtype=float)
    n = system.n
    if c_in.shape != (n,) or c_out.shape != (n,):
        raise DimensionMismatchError(f"couplings must have length {n}")
    new_column_sum = float(c_out.sum() + self_rate)
    if abs(new_column_sum - 1.0) > ZERO_TOL:
        raise BadColumnSumError(
            f"new species column sums to {new_column_sum!r}, expected 1"
        )
    if not 0.0 < seed_fraction < 1.0:
        raise BadFractionError(f"seed_fraction must lie in (0, 1), got {seed_fraction}")

    grown = np.zeros((n + 1, n + 1))
    grown[:n, :n] = system.matrix.entries
    grown[np.diag_indices(n)] -= c_in
    grown[n, :n] = c_in
    grown[:n, n] = c_out
    grown[n, n] = self_rate

    populations = np.append(system.populations.values * (1.0 - seed_fraction), seed_fraction)
    new_id = system.universe_size
    return ActiveSystem(
        matrix=EvolutionMatrix(grown),
        populations=PopulationVector(populations),
        alive_ids=system.alive_ids + (new_id,),
        universe_size=new_id + 1,
    )


def _floor_dust(values: np.ndarray) -> np.ndarray:
    # Only sub-tolerance float dust is floored; a genuine negative entry
    # would be a bug and must stay visible.
    return np.where((values < 0.0) & (values > -ZERO_TOL), 0.0, values)


_MAX_BLOCK = 256  # longest speculative block of steps in `evolve`


def evolve(system: ActiveSystem, config: SimulationConfig = SimulationConfig()) -> Trajectory:
    """Run the evolution engine until convergence, extinction, or the step cap.

    Stops when the L1 step-to-step change drops below
    ``config.convergence_tol``, when a single species remains, or after
    ``config.max_steps`` completed steps, whichever comes first.

    Steps run in speculative blocks: K matvecs into a ``(K+1, width)``
    buffer, then one vectorized test of every step in the block for a
    crossing and for convergence. The steps before the first stopping
    step are accepted; at that step the crossing wins over convergence,
    exactly as if the steps ran one by one, and the steps computed past it
    are discarded. K restarts at 1 after every elimination and doubles
    after each block without a stop, up to 256, never past the step cap.
    The cost is one matvec call per step, including the discarded ones,
    and one ``crossing_fraction`` call per elimination.
    """
    entries = np.array(system.matrix.entries)
    phi = np.array(system.populations.values)
    alive = list(system.alive_ids)
    full_size = system.universe_size
    # Row blocks in order: (steps, fractions, full states, eliminated species or -1).
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def embed(states: np.ndarray) -> np.ndarray:
        full = np.zeros((len(states), full_size))
        full[:, alive] = states
        return _floor_dust(full)

    def record(steps: np.ndarray, states: np.ndarray, fraction: float = 0.0, species: int = -1) -> None:
        m = steps.size
        chunks.append((steps, np.full(m, fraction), embed(states), np.full(m, species)))

    record(np.zeros(1, dtype=int), phi[None, :])
    events: list[EliminationEvent] = []
    neg_after = None  # negative off-diagonal count; `entries` only changes at a fold
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
        for j in range(k):
            entries.dot(states[j], out=states[j + 1])
        crossed, converged = _stop_tests(states[1:], states[:-1], config.convergence_tol)
        stops = np.flatnonzero(crossed | converged)
        if stops.size == 0:
            accepted = k
        else:
            stop = int(stops[0])
            accepted = stop if crossed[stop] else stop + 1  # a crossing step does not complete
        first = t + config.record_every - t % config.record_every  # next step to record
        recorded = np.arange(first, t + accepted + 1, config.record_every)
        if recorded.size:
            record(recorded, states[recorded - t])
        t += accepted
        phi = states[accepted]
        if stops.size == 0:
            block = min(2 * block, _MAX_BLOCK)
            continue
        if not crossed[stop]:
            reason = TerminationReason.CONVERGED
            break
        local, tau = crossing_fraction(phi, states[stop + 1])
        phi = (1.0 - tau) * phi + tau * states[stop + 1]
        phi[local] = 0.0
        if neg_after is None:
            neg_after = negative_offdiag_count(entries)
        neg_before, species = neg_after, alive[local]
        record(np.full(1, t), phi[None, :], tau, species)
        entries, phi, alive = _eliminate(entries, phi, alive, local)
        neg_after = negative_offdiag_count(entries)
        events.append(EliminationEvent(t, tau, species, neg_before, neg_after))
        block = 1  # re-evaluate the interrupted step on the reduced system

    if chunks[-1][0][-1] != t:  # a row at step t is always the current state
        record(np.full(1, t), phi[None, :])
    steps, fractions, values, event_species = (np.concatenate(column) for column in zip(*chunks))
    for column in (steps, fractions, values, event_species):
        column.flags.writeable = False

    # The report re-projects the terminal state onto the simplex; trajectory
    # rows keep the raw values so conservation drift stays measurable.
    final_system = ActiveSystem(
        matrix=EvolutionMatrix(entries),
        populations=make_population(_floor_dust(phi)),
        alive_ids=tuple(alive),
        universe_size=full_size,
    )
    return Trajectory(
        steps=steps,
        fractions=fractions,
        values=values,
        event_species=event_species,
        events=tuple(events),
        terminated_reason=reason,
        final_system=final_system,
    )


def growth_unconstrained(diagonal_rates, phi0, steps: int) -> np.ndarray:
    """Resource-plenty growth: each species compounds its own rate.

    No transfers and no conservation; populations simply scale by
    ``rate ** steps`` entrywise. ``steps`` must be an integer (not a bool)
    of at least 0; anything else raises ``ValidationError``.
    """
    _check_integer("steps", steps)
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    rates = np.asarray(diagonal_rates, dtype=float)
    start = np.asarray(phi0, dtype=float)
    if rates.shape != start.shape:
        raise DimensionMismatchError("rates and populations must have matching shapes")
    return rates**steps * start


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
    if matrix.n != len(phi0):
        raise DimensionMismatchError("matrix and population dimensions differ")
    _check_step_count("max_steps", max_steps)
    if abs(float(np.linalg.det(a))) <= 1e-12:
        raise SingularMatrixError("evolution matrix is singular; cannot step backward")
    state = np.array(phi0.values)
    horizon = 0
    for _ in range(max_steps):
        candidate = np.linalg.solve(a, state)
        out_of_range = np.flatnonzero((candidate < -ZERO_TOL) | (candidate > 1.0 + ZERO_TOL))
        if out_of_range.size:
            return BackwardReport(
                horizon=horizon, offender=int(out_of_range[0]), endpoint=state
            )
        state = candidate
        horizon += 1
    return BackwardReport(horizon=horizon, offender=None, endpoint=state)


def _first_elimination_steps(
    entries: np.ndarray, phi0: np.ndarray, config: SimulationConfig
) -> list[int | None]:
    """Steps to first elimination of each system in ``entries`` (S, n, n), all from ``phi0``.

    Every live system takes one step per iteration through one stacked
    matvec, under ``evolve``'s stop rules in ``evolve``'s order: the step
    cap, then a crossing (the system's result is the completed step count),
    then convergence (None). Finished systems leave the stacked arrays.
    """
    steps: list[int | None] = [None] * entries.shape[0]
    if phi0.size == 1:
        return steps
    live = np.arange(entries.shape[0])
    phi = np.repeat(phi0[None, :], entries.shape[0], axis=0)
    t = 0
    while live.size and t < config.max_steps:
        proposed = np.matmul(entries, phi[:, :, None])[:, :, 0]
        crossed, converged = _stop_tests(proposed, phi, config.convergence_tol)
        finished = crossed | converged
        if finished.any():
            for k in live[crossed].tolist():
                steps[k] = t
            running = ~finished
            live, entries, proposed = live[running], entries[running], proposed[running]
        phi = proposed
        t += 1
    return steps


def elimination_time_scan(
    builder,
    phi0: PopulationVector,
    scales,
    config: SimulationConfig = SimulationConfig(),
) -> list[ScanRow]:
    """Steps to first elimination across a family of matrices ``builder(c)``.

    All scales advance in lockstep from ``phi0``, one stacked matvec per
    step, and each stops at its first elimination (the row holds the number
    of completed steps), at convergence or at ``config.max_steps``; the
    last two give ``steps=None`` rather than failing the whole scan. The
    stop rules and their order are ``evolve``'s, so the steps equal those
    of the first event of ``evolve`` on each matrix, at the cost of about
    one stacked matvec per step of the slowest scale. Nothing is recorded.
    """
    scales = list(scales)
    if not scales:
        return []
    matrices = [builder(scale) for scale in scales]
    n = phi0.n
    for scale, matrix in zip(scales, matrices):
        if matrix.n != n:
            raise DimensionMismatchError(
                f"matrix for scale {float(scale)!r} is {matrix.n}x{matrix.n} "
                f"but the population has {n} entries"
            )
    entries = np.stack([matrix.entries for matrix in matrices])
    steps = _first_elimination_steps(entries, np.array(phi0.values), config)
    return [ScanRow(scale=float(scale), steps=k) for scale, k in zip(scales, steps)]
