"""Peak-memory guards for the paths that hold the largest arrays.

NumPy reports its data allocations to ``tracemalloc``, so the traced peak
of a call counts every array it holds at once. Each peak is taken above
what was traced before the call. LAPACK's workspace is allocated outside
NumPy and is not counted. Each bound sits between the peak of the code
that kept more live copies of its largest array and the peak of the
current code:

- ``eigendecompose`` at n=300: 4.09 when it kept more copies of the
  vectors, 2.09 when it ran the eigenvalue pair search, 2.53 now (units of
  16 n^2 bytes, one complex n x n array), the inverse held beside the
  vectors while κ₁ is read from it; ``eye(300)``, whose 44,850 coinciding
  pairs the pair search held, fell from 5.01 to 2.51;
- ``check_biorthogonality`` on that draw: 1.51 when it formed the
  complex Gram product of the left and right vectors, 1.00 when it ran
  the eigenvalue pair search (two real n x n arrays), 0.50 now, the one
  real n x n array of magnitudes that each 1-norm reads;
- a full iteration of an n=50 ``evolve`` recording every step, which
  lets go of each window before asking for the next: 0.49 MiB at 5,000,
  20,000 and 80,000 steps for a run that never reaches a fixed point
  (one window of 16,384 values, one block's buffers and the masks of
  the window's dust floor), and 0.28 MiB for one that does. The bound,
  0.54 MiB, is the larger figure plus 10% headroom. With windows of
  about 1 MiB and a dust floor chunked to 16,384 entries, both read 1.39
  and 1.17 MiB; with the floor unchunked over those windows, 1.71 MiB;
  when ``evolve`` kept every recorded row until the run ended, 2.32 MiB
  at 5,000 steps and 31.5 MiB at 80,000;
- a CLI ``simulate`` of ``random_competitive(50, 0.05, 0.1, 1)`` recording
  every step, from loading the scenario to renaming both outputs: 0.98
  MiB at 80,000 steps and 1.14 MiB at 20,000 as the first call in a
  process (0.94 MiB after it). The bound, 1.25 MiB, is the larger figure
  plus 10% headroom. With 1 MiB windows and the CSV gathered into
  strings of about 64 KiB, it read 1.44 MiB (1.60 MiB as the first
  call); 1.79 MiB before the chunked dust floor and the stop at a fixed
  point. When ``simulate`` wrote the CSV from the whole run's rows, it
  read 8.66 MiB at 20,000 steps and 34.3 MiB at 80,000.
"""

import json
import tracemalloc

import numpy as np
import pytest

from evosum import (
    EvolutionMatrix,
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


def test_check_biorthogonality_holds_no_complex_copy(traced_peak):
    summary = eigendecompose(random_stochastic(N, 0.3, 1))
    _, peak = traced_peak(lambda: check_biorthogonality(summary))
    assert peak / COMPLEX_MATRIX < 0.75


MIB = 2**20
DENSE_STEPS = (20_000, 80_000)  # the benchmark's simulate-dense length, and four times it


def test_evolve_holds_one_window(traced_peak):
    systems = [
        (random_stochastic(50, 0.3, 1), np.ones(50)),  # reaches an exact fixed point
        # A cyclic shift from distinct abundances: no step reproduces its
        # input, so the run steps to the cap.
        (EvolutionMatrix(np.roll(np.eye(50), 1, axis=0)), np.arange(1.0, 51.0)),
    ]

    def rows_handed_over(matrix, start, config):
        rows = 0
        for window in evolve(matrix, make_population(start), config):
            rows += len(window[0])
            del window  # let go of it before the next one is filled
        return rows

    for matrix, start in systems:
        for steps in DENSE_STEPS:
            config = SimulationConfig(max_steps=steps, convergence_tol=0.0)
            rows, peak = traced_peak(lambda: rows_handed_over(matrix, start, config))
            assert rows == steps + 1
            assert peak < 0.54 * MIB


def test_simulate_peak_is_flat_in_run_length(traced_peak, tmp_path):
    n = 50
    scenario = tmp_path / "dense.json"
    argv = ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "dense.csv")]
    for steps in DENSE_STEPS:
        data = {
            "matrix": {"entries": random_competitive(n, 0.05, 0.1, 1).entries.tolist()},
            "initial": [1.0] * n,
            "config": {"max_steps": steps, "convergence_tol": 0.0, "record_every": 1},
        }
        scenario.write_text(json.dumps(data), encoding="utf-8")
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < 1.25 * MIB
