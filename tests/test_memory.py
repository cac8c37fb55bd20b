"""Peak-memory guards for the paths that hold the largest arrays.

NumPy reports its data allocations to ``tracemalloc``, so the traced peak
of a call counts every array it holds at once. Each peak is taken above
what was traced before the call and given in units of the call's own
large array. LAPACK's workspace is allocated outside NumPy and is not
counted. Each bound sits between the peak of the code that kept two live
copies of its largest array and the peak of the one-copy code:

- ``eigendecompose`` at n=300: 4.09 before, 2.09 now (units of 16 n^2
  bytes, one complex n x n array);
- ``check_biorthogonality`` on that draw: 2.09 before, 1.51 now;
- a 5,000-step n=50 ``evolve`` recording every step: 2.08 before, 1.20
  now (units of ``values.nbytes``);
- a CLI ``simulate`` of ``random_competitive(50, 0.05, 0.1, 1)`` recording
  all 20,000 steps, from loading the scenario to renaming both outputs:
  1.27-1.30 before, with per-row fraction and event-species columns
  beside the rows, 1.13-1.16 now, with each elimination stored once, as
  its event (units of the recorded ``values``' bytes; the higher figure
  is the first call in a process).
"""

import json
import tracemalloc

import numpy as np
import pytest

from evosum import (
    SimulationConfig,
    check_biorthogonality,
    eigendecompose,
    evolve,
    make_population,
    random_competitive,
    random_stochastic,
)
from evosum.cli import main


@pytest.fixture
def traced_peak():
    """``peak(fn)`` runs ``fn`` and returns its result and its traced peak in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def peak(fn):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before

    yield peak
    if started:
        tracemalloc.stop()


N = 300
COMPLEX_MATRIX = 16 * N * N  # bytes of one complex n x n array


def test_eigendecompose_holds_one_copy_of_the_vectors(traced_peak):
    matrix = random_stochastic(N, 0.3, 1)
    _, peak = traced_peak(lambda: eigendecompose(matrix))
    assert peak / COMPLEX_MATRIX < 3.0


def test_check_biorthogonality_normalizes_in_place(traced_peak):
    summary = eigendecompose(random_stochastic(N, 0.3, 1))
    _, peak = traced_peak(lambda: check_biorthogonality(summary, tol=1e-8))
    assert peak / COMPLEX_MATRIX < 1.8


def test_evolve_holds_each_recorded_row_once(traced_peak):
    matrix, start = random_stochastic(50, 0.3, 1), make_population(np.ones(50))
    config = SimulationConfig(max_steps=5000, convergence_tol=0.0)
    trajectory, peak = traced_peak(lambda: evolve(matrix, start, config))
    assert trajectory.values.shape == (5001, 50)
    assert peak / trajectory.values.nbytes < 1.7


def test_simulate_stores_each_elimination_once(traced_peak, tmp_path):
    steps, n = 20_000, 50
    scenario = tmp_path / "dense.json"
    data = {
        "matrix": {"entries": random_competitive(n, 0.05, 0.1, 1).entries.tolist()},
        "initial": [1.0] * n,
        "config": {"max_steps": steps, "convergence_tol": 0.0, "record_every": 1},
    }
    scenario.write_text(json.dumps(data), encoding="utf-8")
    argv = ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "dense.csv")]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert peak / ((steps + 1) * n * 8) < 1.21
