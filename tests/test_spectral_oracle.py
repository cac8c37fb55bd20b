"""The first elimination event against the spectral mode expansion.

The model is linear, so until the first elimination the state is
``phi(t) = sum_k (l_k . phi0) lambda_k^t r_k`` over the biorthogonal
eigenpairs of ``eigendecompose``. Mixed-sign mode weights can cancel a
population to zero in finite time. The first step whose expansion has an
entry below ``-ZERO_TOL`` is when ``evolve`` must see its first crossing.
The oracle shares no stepping code with the engine: it never multiplies
by the matrix.

The expansion is only as accurate as its eigenvector basis: its rounding
error grows with the condition number of the right vectors. So the check
runs on draws whose basis has a condition number of at most 1e4, which
leaves out defective spectra too. Over 1,572 draws with an event (n in
{3, 5, 10, 20}, seeds 0-399) the step and species matched on every draw;
the fraction was within 1.2e-7 where the condition number was at most 1e4
and 4.5e-5 at 2.5e6.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evosum import SimulationConfig, eigendecompose, evolve, make_population, random_competitive
from evosum.core import ZERO_TOL
from test_dynamics import collect

WIDTHS = (3, 5, 10, 20)
CONFIG = SimulationConfig(max_steps=3000)
MAX_BASIS_COND = 1e4


def expansion_first_crossing(summary, phi0, max_steps):
    """First ``(step, species, fraction)`` at which the mode expansion crosses, or None.

    ``step`` counts the completed steps before the crossing, and the
    fraction is the linear interpolation between the expansion's states
    on either side of it, earliest species first.
    """
    weights = (summary.left_vectors @ phi0)[:, None] * summary.right_vectors
    powers = np.ones_like(summary.eigenvalues)
    before = (powers @ weights).real
    for step in range(max_steps):
        powers = powers * summary.eigenvalues
        after = (powers @ weights).real
        negative = np.flatnonzero(after < -ZERO_TOL)
        if negative.size:
            taus = np.clip(before[negative] / (before[negative] - after[negative]), 0.0, 1.0)
            k = int(np.argmin(taus))
            return step, int(negative[k]), float(taus[k])
        before = after
    return None


def check_first_event(n, seed):
    """Assert that ``evolve``'s first event is the expansion's first crossing.

    Returns False, checking nothing, when the eigenvector basis is too
    ill-conditioned for the expansion to be accurate, or is no basis.
    """
    matrix = random_competitive(n, 0.5, 0.5, seed)
    summary = eigendecompose(matrix)
    if summary.defective or np.linalg.cond(summary.right_vectors) > MAX_BASIS_COND:
        return False
    start = make_population(np.ones(n))
    trajectory = collect(evolve(matrix, start, CONFIG))
    if not trajectory.events:
        # No crossing through the last step the engine ran.
        assert expansion_first_crossing(summary, start.values, int(trajectory.steps[-1])) is None
        return True
    first = trajectory.events[0]
    crossing = expansion_first_crossing(summary, start.values, first.step_index + 1)
    assert crossing is not None
    step, species, fraction = crossing
    assert (step, species) == (first.step_index, first.species_id)
    assert abs(fraction - first.fraction) <= 1e-6
    return True


@pytest.mark.parametrize("n", WIDTHS)
def test_first_event_matches_mode_expansion(n):
    checked = [check_first_event(n, seed) for seed in range(20)]
    assert sum(checked) >= 15


@given(n=st.sampled_from(WIDTHS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_first_event_matches_mode_expansion_on_any_draw(n, seed):
    assume(check_first_event(n, seed))
