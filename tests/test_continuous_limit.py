"""The scan's first elimination steps against the continuous-time limit.

With ``C = M - I``, the member ``I + c C`` of a scan family is one Euler
step of ``dphi/dt = C phi`` of length c. So ``c k(c)``, with ``k(c)`` the
scan's first elimination step, should tend to ``t*``, the first time at
which ``exp(t C) phi0`` has an entry at zero, and the paper's finite
elimination time should not depend on the step size. The crossing falls
inside step ``k(c)``, which puts up to one c between ``c k(c)`` and the
Euler polygon's crossing, and Euler's own error is O(c) too, so the
check is ``|c k(c) - t*| <= A c``.

``t*`` comes from the mode expansion ``sum_p exp(t (lambda_p - 1))
(l_p . phi0) r_p`` over ``eigendecompose``'s biorthogonal pairs (the
eigenvectors of M are those of C). It shares no stepping code with the
scan: it never multiplies by the matrix. The first crossing is bracketed
on a time grid four times finer than the smallest c, so a grazing
crossing is not stepped over, then bisected. As in the spectral oracle
test, only draws whose right eigenvector basis has a condition number of
at most 1e4 are checked.

A was measured before the bound was set: over 65 draws of
``random_competitive(n, 0.5, 0.5, seed)`` from a uniform start (n = 5,
10 and 20 with seeds 1-20, n = 50 with seeds 1-5; every one passed the
gate and crossed) and c in {0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001},
the largest ``|c k(c) - t*| / c`` was 1.49 (n=5, seed 20), and 1.08,
0.43 and 0.80 on n=10 seeds 1 and 2 and n=50 seed 1. The error does not
shrink monotonically in c. The bound is A = 2.
"""

import numpy as np
import pytest

from evosum import (
    SimulationConfig,
    eigendecompose,
    elimination_time_scan,
    make_population,
    random_competitive,
)

SCALES = np.array([0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001])
A = 2.0
MAX_BASIS_COND = 1e4
HORIZON = 50.0  # latest crossing time searched; the draws above cross by t = 11
GRID_CHUNK = 1024  # grid times evaluated at once


def continuous_first_crossing(summary, phi0, spacing, horizon=HORIZON):
    """First time at which the mode expansion has an entry below zero, or None.

    Scans a grid of the given spacing, a chunk at a time, for the first
    time with a negative entry, then bisects the lowest entry between it
    and the grid time before it.
    """
    rates = summary.eigenvalues - 1.0
    weights = (summary.left_vectors @ phi0)[:, None] * summary.right_vectors

    def lowest(times):
        return (np.exp(np.multiply.outer(times, rates)) @ weights).real.min(axis=-1)

    for first in range(0, int(horizon / spacing) + 1, GRID_CHUNK):
        times = spacing * np.arange(first, first + GRID_CHUNK)
        below = np.flatnonzero(lowest(times) < 0.0)
        if below.size:
            break
    else:
        return None
    j = int(below[0])
    assert first + j > 0, "the start has a negative entry"
    low, high = spacing * (first + j - 1), times[j]
    for _ in range(60):
        middle = 0.5 * (low + high)
        if lowest(np.array([middle]))[0] < 0.0:
            high = middle
        else:
            low = middle
    return 0.5 * (low + high)


def check_continuous_limit(n, seed):
    """Assert ``|c k(c) - t*| <= A c`` at every scale; False, checking nothing, if gated."""
    matrix = random_competitive(n, 0.5, 0.5, seed)
    summary = eigendecompose(matrix)
    if summary.defective or np.linalg.cond(summary.right_vectors) > MAX_BASIS_COND:
        return False
    start = make_population(np.ones(n))
    t_star = continuous_first_crossing(summary, start.values, SCALES.min() / 4)
    assert t_star is not None
    identity = np.eye(n)
    family = identity + SCALES[:, None, None] * (matrix.entries - identity)
    config = SimulationConfig(max_steps=int(2 * t_star / SCALES.min()), convergence_tol=0.0)
    steps = elimination_time_scan(family, start, config)
    for scale, k in zip(SCALES, steps):
        assert k is not None, scale
        assert abs(scale * k - t_star) <= A * scale, (scale, k, t_star)
    return True


@pytest.mark.parametrize("n", [5, 10, 20, 50])
def test_first_elimination_time_tends_to_the_continuous_crossing(n):
    checked = [check_continuous_limit(n, seed) for seed in range(1, 6)]
    assert sum(checked) >= 4
