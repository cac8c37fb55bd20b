"""The four benchmark workloads: seeded scenario files plus CLI invocations.

Every input is generated from the benchmark seed before any timing starts,
written as a scenario file with floats in their shortest round-tripping
``repr`` (``json`` does this), and handed to the program only as a path on
the command line. Each ``Invocation`` carries the parameters its oracle
needs, so the checks read the inputs back from disk rather than trusting
state shared with the run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from evosum.core import random_competitive, random_stochastic

# One simulate run whose every step is recorded and written: formatting and
# per-step snapshots dominate, and no species goes extinct.
DENSE_N = 50
DENSE_STEPS = 20_000

# An ensemble of independent 200-species draws. Most of the ~190 eliminations
# of a run happen in its first 3,000 steps. Left to settle, a run takes from
# 6,000 to ~100,000 steps, a tail that makes one draw cost as much as six;
# the cap gives every run the same step count, so seeds differ in how the
# width shrinks, not in how long the run is.
CASCADE_RUNS = 16
CASCADE_N = 200
CASCADE_MAX_STEPS = 6_000
CASCADE_RECORD_EVERY = 1000

# A two-species sweep: one monotone-extinction run per scale, no scenario file.
SWEEP_SCALES = 400
SWEEP_RANGE = (0.05, 2.0)
SWEEP_ALPHA_PER_SCALE = 0.02
SWEEP_BETA_PER_SCALE = -0.01
SWEEP_MAX_STEPS = 10_000

# Spectra of a large stochastic draw, a complex mixed-sign draw and the fully
# degenerate identity, then backward horizons at two sizes.
SPECTRUM_STOCHASTIC_N = 500
SPECTRUM_COMPETITIVE_N = 300
SPECTRUM_IDENTITY_N = 300
BACKWARD_SIZES = (50, 200)
BACKWARD_MAX_STEPS = 100


@dataclass(frozen=True)
class Invocation:
    """One ``evosum`` command line and what its oracle needs to check it."""

    label: str
    argv: list[str]
    scenario: str | None = None
    outputs: list[str] = field(default_factory=list)
    check: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    invocations: list[Invocation]
    inputs: list[dict]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Inputs:
    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.in_dir = os.path.join(workdir, "in")
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.in_dir, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        self.inputs: list[dict] = []

    def scenario(self, name: str, entries: np.ndarray, source: str, config: dict | None = None) -> str:
        n = entries.shape[0]
        data = {
            "matrix": {"entries": entries.tolist()},
            "initial": [1.0] * n,
            "seed": self.seed,
        }
        if config is not None:
            data["config"] = config
        path = os.path.join(self.in_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        self.inputs.append(
            {
                "file": os.path.basename(path),
                "source": source,
                "n": n,
                "bytes": os.path.getsize(path),
                "sha256": sha256_file(path),
            }
        )
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def _simulate(b: _Inputs, label: str, path: str) -> Invocation:
    csv = b.out(label + ".csv")
    summary = csv + ".summary.json"
    return Invocation(
        label=label,
        argv=["simulate", "--scenario", path, "--out", csv, "--summary", summary],
        scenario=path,
        outputs=[csv, summary],
    )


def _simulate_dense(b: _Inputs) -> list[Invocation]:
    entries = random_competitive(DENSE_N, 0.05, 0.1, b.seed).entries
    config = {"max_steps": DENSE_STEPS, "convergence_tol": 0.0, "record_every": 1}
    path = b.scenario(
        "dense", entries, f"random_competitive({DENSE_N}, 0.05, 0.1, {b.seed})", config
    )
    return [_simulate(b, "dense", path)]


def _extinction_cascade(b: _Inputs) -> list[Invocation]:
    # Members of different seeds' ensembles are disjoint draws, so the spread
    # across seeds is not understated by shared members.
    config = {"max_steps": CASCADE_MAX_STEPS, "record_every": CASCADE_RECORD_EVERY}
    invocations = []
    for k in range(CASCADE_RUNS):
        member = b.seed * CASCADE_RUNS + k
        entries = random_competitive(CASCADE_N, 0.5, 0.5, member).entries
        label = f"cascade{k:02d}"
        source = f"random_competitive({CASCADE_N}, 0.5, 0.5, {member})"
        invocations.append(_simulate(b, label, b.scenario(label, entries, source, config)))
    return invocations


def _sweep_scan(b: _Inputs) -> list[Invocation]:
    # Evenly spaced scales; the seed only shifts the grid within one spacing.
    lo, hi = SWEEP_RANGE
    spacing = (hi - lo) / SWEEP_SCALES
    offset = float(np.random.default_rng(b.seed).random())
    scales = [repr(lo + (i + offset) * spacing) for i in range(SWEEP_SCALES)]
    out = b.out("sweep.csv")
    argv = [
        "sweep",
        f"--alpha-per-scale={SWEEP_ALPHA_PER_SCALE!r}",
        f"--beta-per-scale={SWEEP_BETA_PER_SCALE!r}",
        f"--max-steps={SWEEP_MAX_STEPS}",
        "--initial", "0.5", "0.5",
        "--out", out,
        "--scales", *scales,
    ]
    check = {
        "alpha_per_scale": SWEEP_ALPHA_PER_SCALE,
        "beta_per_scale": SWEEP_BETA_PER_SCALE,
        "initial": [0.5, 0.5],
        "max_steps": SWEEP_MAX_STEPS,
        "scales": scales,
    }
    return [Invocation(label="sweep", argv=argv, outputs=[out], check=check)]


def _matrix_analysis(b: _Inputs) -> list[Invocation]:
    invocations = []
    spectra = [
        (
            "spectrum_stochastic",
            random_stochastic(SPECTRUM_STOCHASTIC_N, 0.3, b.seed).entries,
            f"random_stochastic({SPECTRUM_STOCHASTIC_N}, 0.3, {b.seed})",
            {"stochastic": True},
        ),
        (
            "spectrum_competitive",
            random_competitive(SPECTRUM_COMPETITIVE_N, 0.5, 0.5, b.seed).entries,
            f"random_competitive({SPECTRUM_COMPETITIVE_N}, 0.5, 0.5, {b.seed})",
            {},
        ),
        (
            "spectrum_identity",
            np.eye(SPECTRUM_IDENTITY_N),
            f"eye({SPECTRUM_IDENTITY_N})",
            {"identity": True},
        ),
    ]
    for label, entries, source, check in spectra:
        path = b.scenario(label, entries, source)
        out = b.out(label + ".json")
        invocations.append(
            Invocation(
                label=label,
                argv=["spectrum", "--scenario", path, "--out", out],
                scenario=path,
                outputs=[out],
                check=check,
            )
        )
    for n in BACKWARD_SIZES:
        label = f"backward{n}"
        path = b.scenario(
            label, random_stochastic(n, 0.3, b.seed).entries, f"random_stochastic({n}, 0.3, {b.seed})"
        )
        invocations.append(
            Invocation(
                label=label,
                argv=["backward", "--scenario", path, "--max-steps", str(BACKWARD_MAX_STEPS)],
                scenario=path,
                check={"max_steps": BACKWARD_MAX_STEPS},
            )
        )
    return invocations


_WORKLOADS = {
    "simulate-dense": _simulate_dense,
    "extinction-cascade": _extinction_cascade,
    "sweep-scan": _sweep_scan,
    "matrix-analysis": _matrix_analysis,
}
WORKLOADS = tuple(_WORKLOADS)


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the workload's inputs under ``workdir`` and return its invocations."""
    inputs = _Inputs(workdir, seed)
    invocations = _WORKLOADS[name](inputs)
    return Workload(invocations=invocations, inputs=inputs.inputs)
