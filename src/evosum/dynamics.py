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
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    EvolutionMatrix,
    PopulationVector,
    ToleranceConfig,
    _readonly,
    make_population,
    negative_offdiag_count,
)
from .errors import (
    BadColumnSumError,
    BadFractionError,
    DimensionMismatchError,
    LastSpeciesError,
    NotExtinctError,
    SingularMatrixError,
    ValidationError,
)


@dataclass(frozen=True)
class SimulationConfig:
    """Run limits and tolerances for the evolution engine."""

    max_steps: int = 10_000
    convergence_tol: float = 1e-12
    tolerances: ToleranceConfig = DEFAULT_TOL
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1")
        if self.record_every < 1:
            raise ValidationError("record_every must be at least 1")
        if not self.convergence_tol >= 0:
            raise ValidationError("convergence_tol must be a nonnegative number")


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


def crossing_fraction(
    phi_before, phi_after, zero_tol: float = DEFAULT_TOL.zero_tol
) -> tuple[int, float] | None:
    """First zero crossing within a step, as (local index, fraction).

    Among entries driven below ``-zero_tol``, returns the one whose linear
    interpolation hits zero earliest; ties go to the lowest index. Returns
    None when no entry went negative.
    """
    before = np.asarray(phi_before, dtype=float)
    after = np.asarray(phi_after, dtype=float)
    negative = np.flatnonzero(after < -zero_tol)
    if negative.size == 0:
        return None
    taus = before[negative] / (before[negative] - after[negative])
    taus = np.clip(taus, 0.0, 1.0)  # guards entries already at (dust) zero
    k = int(np.argmin(taus))  # argmin takes the first minimum: lowest id wins ties
    return int(negative[k]), float(taus[k])


def _fold_out(entries: np.ndarray, index: int) -> np.ndarray:
    """Drop row/column ``index``; fold its row entries onto the diagonals."""
    removed_row = np.delete(entries[index, :], index)
    reduced = np.delete(np.delete(entries, index, axis=0), index, axis=1)
    reduced[np.diag_indices_from(reduced)] += removed_row
    return reduced


def eliminate_species(system: ActiveSystem, local_index: int, zero_tol: float | None = None) -> ActiveSystem:
    """Remove an extinct species and rebalance the conserved columns.

    The species' population must already be zero (within ``zero_tol``).
    Surviving populations pass through unchanged; they already carry the
    whole total.
    """
    if zero_tol is None:
        zero_tol = DEFAULT_TOL.zero_tol
    n = system.n
    if not 0 <= local_index < n:
        raise DimensionMismatchError(f"local index {local_index} outside 0..{n - 1}")
    if n == 1:
        raise LastSpeciesError("cannot eliminate the only remaining species")
    pop = float(system.populations.values[local_index])
    if abs(pop) > zero_tol:
        raise NotExtinctError(
            f"species at local index {local_index} has population {pop!r}, not zero"
        )
    reduced = _fold_out(np.array(system.matrix.entries), local_index)
    survivors = np.delete(system.populations.values, local_index)
    alive = system.alive_ids[:local_index] + system.alive_ids[local_index + 1 :]
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
    if abs(new_column_sum - 1.0) > DEFAULT_TOL.zero_tol:
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


def _floor_dust(values: np.ndarray, zero_tol: float) -> np.ndarray:
    # Only sub-tolerance float dust is floored; a genuine negative entry
    # would be a bug and must stay visible.
    return np.where((values < 0.0) & (values > -zero_tol), 0.0, values)


def evolve(system: ActiveSystem, config: SimulationConfig = SimulationConfig()) -> Trajectory:
    """Run the evolution engine until convergence, extinction, or the step cap.

    Stops when the L1 step-to-step change drops below
    ``config.convergence_tol``, when a single species remains, or after
    ``config.max_steps`` completed steps, whichever comes first.
    """
    zero_tol = config.tolerances.zero_tol
    entries = np.array(system.matrix.entries)
    phi = np.array(system.populations.values)
    alive = list(system.alive_ids)
    full_size = system.universe_size

    def embed(state: np.ndarray) -> np.ndarray:
        full = np.zeros(full_size)
        full[alive] = state
        return _floor_dust(full, zero_tol)

    # One (step, fraction, full state, eliminated species or -1) per row.
    rows: list[tuple[int, float, np.ndarray, int]] = [(0, 0.0, embed(phi), -1)]
    events: list[EliminationEvent] = []
    neg_after = None  # negative off-diagonal count; `entries` only changes at a fold
    t = 0
    while True:
        if len(alive) == 1:
            reason = TerminationReason.ALL_BUT_ONE_EXTINCT
            break
        if t >= config.max_steps:
            reason = TerminationReason.MAX_STEPS
            break
        proposed = entries @ phi
        crossing = crossing_fraction(phi, proposed, zero_tol)
        if crossing is not None:
            local, tau = crossing
            phi = (1.0 - tau) * phi + tau * proposed
            phi[local] = 0.0
            if neg_after is None:
                neg_after = negative_offdiag_count(entries, zero_tol)
            neg_before = neg_after
            entries = _fold_out(entries, local)
            neg_after = negative_offdiag_count(entries, zero_tol)
            events.append(
                EliminationEvent(
                    step_index=t,
                    fraction=tau,
                    species_id=alive[local],
                    neg_offdiag_before=neg_before,
                    neg_offdiag_after=neg_after,
                )
            )
            rows.append((t, tau, embed(phi), alive[local]))
            phi = np.delete(phi, local)
            del alive[local]
            continue  # re-evaluate the interrupted step on the reduced system
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

    # The report re-projects the terminal state onto the simplex; trajectory
    # rows keep the raw values so conservation drift stays measurable.
    final_system = ActiveSystem(
        matrix=EvolutionMatrix(entries),
        populations=make_population(_floor_dust(phi, zero_tol)),
        alive_ids=tuple(alive),
        universe_size=full_size,
    )
    return Trajectory(
        steps=_readonly(steps, dtype=int),
        fractions=_readonly(fractions),
        values=_readonly(values),
        event_species=_readonly(event_species, dtype=int),
        events=tuple(events),
        terminated_reason=reason,
        final_system=final_system,
    )


def growth_unconstrained(diagonal_rates, phi0, steps: int) -> np.ndarray:
    """Resource-plenty growth: each species compounds its own rate.

    No transfers and no conservation; populations simply scale by
    ``rate ** steps`` entrywise.
    """
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    rates = np.asarray(diagonal_rates, dtype=float)
    start = np.asarray(phi0, dtype=float)
    if rates.shape != start.shape:
        raise DimensionMismatchError("rates and populations must have matching shapes")
    return rates**steps * start


def evolve_backward(
    matrix: EvolutionMatrix,
    phi0: PopulationVector,
    max_steps: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> BackwardReport:
    """Run the evolution backward until some population leaves [0, 1].

    Each backward step solves ``M x = phi`` rather than forming the
    inverse, which is the same arithmetic but better behaved for nearly
    singular matrices. Transient modes grow under the inverse map, so a
    generic start can only be evolved backward finitely far before the
    population reading breaks down.
    """
    a = np.asarray(matrix.entries, dtype=float)
    if matrix.n != len(phi0):
        raise DimensionMismatchError("matrix and population dimensions differ")
    if abs(float(np.linalg.det(a))) <= 1e-12:
        raise SingularMatrixError("evolution matrix is singular; cannot step backward")
    state = np.array(phi0.values)
    horizon = 0
    for _ in range(max_steps):
        candidate = np.linalg.solve(a, state)
        out_of_range = np.flatnonzero(
            (candidate < -tol.zero_tol) | (candidate > 1.0 + tol.zero_tol)
        )
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
    zero_tol = config.tolerances.zero_tol
    live = np.arange(entries.shape[0])
    phi = np.repeat(phi0[None, :], entries.shape[0], axis=0)
    t = 0
    while live.size and t < config.max_steps:
        proposed = np.matmul(entries, phi[:, :, None])[:, :, 0]
        crossed = (proposed < -zero_tol).any(axis=1)
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
