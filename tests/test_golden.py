"""Byte-identity gate: small CLI runs pinned by the SHA-256 of every output.

Each passing case writes its scenario with ``json.dumps`` (floats in their
shortest round-tripping repr), runs the CLI in a scratch directory and
compares the SHA-256 of every file it writes, and its exact stdout. Each
failing case, one per nonzero exit code, pins the exit code and the exact
stderr. All paths are relative to the scratch directory, so messages that
name a path are the same on every run.

The digests were computed with numpy 2.4 on x86-64 OpenBLAS; another BLAS
build may round a matvec differently. A changed digest is a changed output:
report it, do not regenerate the goldens to make it pass.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evosum
from evosum import random_competitive, random_stochastic
from evosum.cli import main


def two_species(alpha, beta, initial, **extra):
    return {"matrix": {"two_species": {"alpha": alpha, "beta": beta}}, "initial": initial, **extra}


def entries(matrix, initial, **extra):
    return {"matrix": {"entries": matrix.tolist()}, "initial": initial, **extra}


SIMULATE = ["simulate", "--scenario", "in.json", "--out", "t.csv"]
SIMULATE_OUTPUTS = ("t.csv", "t.csv.summary.json")
SPECTRUM = ["spectrum", "--scenario", "in.json", "--out", "s.json"]
GENERATOR = [[-0.1, 0.05, 0.0], [0.1, -0.15, 0.2], [0.0, 0.1, -0.2]]
# A stochastic run that never converges (tolerance 0) and reaches an exact
# fixed point at step 182, so over half of its CSV rows repeat the row before.
FIXED_POINT_TAIL = entries(
    random_stochastic(6, 0.3, 1).entries,
    [1, 2, 3, 4, 5, 6],
    config={"max_steps": 400, "convergence_tol": 0},
)
# The same run for 50,000 steps: 50,001 rows (6.3 MB of CSV) span three
# `evolve` windows, and the tail past step 182 repeats one row throughout.
FIXED_POINT_LONG_TAIL = entries(
    random_stochastic(6, 0.3, 1).entries,
    [1, 2, 3, 4, 5, 6],
    config={"max_steps": 50_000, "convergence_tol": 0},
)
# A 20-species cascade: 3,017 rows and 16 eliminations. Its rows fill four
# `evolve` windows, and its events fall in the first and the third.
CASCADE20_WINDOWS = entries(
    random_competitive(20, 0.05, 0.5, 1).entries,
    [1] * 20,
    config={"max_steps": 3000, "convergence_tol": 0},
)
# The benchmark's sweep grid: 400 evenly spaced scales over [0.05, 2]. With
# 400 scales the scan's blocks reach 4,000 stacked states (10 steps each).
SWEEP_400_SCALES = [repr(scale) for scale in np.linspace(0.05, 2.0, 400).tolist()]

# label -> (scenario or None, argv, output files)
PASSING = {
    "coexistence": (
        two_species(0.1, 0.2, [0.9, 0.1], config={"max_steps": 500}, seed=7),
        SIMULATE, SIMULATE_OUTPUTS,
    ),
    "monotone-extinction": (two_species(0.1, -0.05, [0.5, 0.5]), SIMULATE, SIMULATE_OUTPUTS),
    "unstable": (
        two_species(-0.05, -0.1, [0.7, 0.3], species_names=["fox", "hare"]),
        SIMULATE, SIMULATE_OUTPUTS,
    ),
    "generator": (
        {"matrix": {"generator": GENERATOR}, "initial": [1, 2, 3], "config": {"max_steps": 300}},
        SIMULATE, SIMULATE_OUTPUTS,
    ),
    "cascade40": (
        entries(
            random_competitive(40, 0.5, 0.5, 3).entries,
            [1] * 40,
            config={"max_steps": 400, "record_every": 7},
            seed=3,
        ),
        SIMULATE, SIMULATE_OUTPUTS,
    ),
    "cascade20-windows": (CASCADE20_WINDOWS, SIMULATE, SIMULATE_OUTPUTS),
    "fixed-point-tail": (FIXED_POINT_TAIL, SIMULATE, SIMULATE_OUTPUTS),
    "fixed-point-long-tail": (FIXED_POINT_LONG_TAIL, SIMULATE, SIMULATE_OUTPUTS),
    "sweep": (
        None,
        [
            "sweep", "--alpha-per-scale", "0.02", "--beta-per-scale", "-0.01",
            "--scales", "0.05", "0.3", "0.7", "1.3", "2.0", "--initial", "2", "3",
            "--out", "sweep.csv",
        ],
        ("sweep.csv",),
    ),
    "sweep-400": (
        None,
        [
            "sweep", "--alpha-per-scale", "0.02", "--beta-per-scale", "-0.01",
            "--max-steps", "10000", "--initial", "0.5", "0.5", "--out", "sweep.csv",
            "--scales", *SWEEP_400_SCALES,
        ],
        ("sweep.csv",),
    ),
    "spectrum-stochastic": (
        entries(random_stochastic(20, 0.3, 5).entries, [1] * 20), SPECTRUM, ("s.json",),
    ),
    "spectrum-identity": (entries(np.eye(3), [1, 1, 1]), SPECTRUM, ("s.json",)),
    "spectrum-pair": (two_species(0.1, 0.1, [0.6, 0.4]), SPECTRUM, ("s.json",)),
    # [[-1.5, -2.5], [2.5, 3.5]]: a Jordan block whose right eigenvectors are parallel.
    "spectrum-singular-basis": (two_species(2.5, -2.5, [0.5, 0.5]), SPECTRUM, ("s.json",)),
    # A Jordan block that eig splits into 1 +- 9.4e-9i: a basis singular to within rounding.
    "spectrum-split-jordan": (two_species(0.2, -0.2, [0.5, 0.5]), SPECTRUM, ("s.json",)),
    "backward50": (
        entries(random_stochastic(50, 0.3, 1).entries, [1] * 50),
        ["backward", "--scenario", "in.json", "--max-steps", "100"],
        (),
    ),
}

# label -> (scenario or None, argv, exit code, stderr)
FAILING = {
    "parse": (
        two_species(0.1, 0.2, [0.5, 0.5], extra=1),
        SIMULATE, 2, "error: in.json: unknown scenario fields: ['extra']\n",
    ),
    "validation": (
        two_species(0.1, 0.2, [-1, 2]),
        SIMULATE, 3, "error: abundance entry 0 is negative (-1.0)\n",
    ),
    "numerical": (
        entries(np.array([[0.5, 0.5], [0.5, 0.5]]), [1, 1]),
        ["backward", "--scenario", "in.json"],
        4, "error: evolution matrix is singular; cannot step backward\n",
    ),
    "io": (
        None,
        ["simulate", "--scenario", "missing.json", "--out", "t.csv"],
        5, "error: [Errno 2] No such file or directory: 'missing.json'\n",
    ),
}

# Computed on the parent of the change that folded the leaf error classes
# into their bases; that change and every later one must keep these bytes.
# "fixed-point-tail" was computed on the parent of the change that reuses a
# repeated row's formatted cells, so it pins that those bytes did not move.
# "fixed-point-long-tail" was computed on the parent of the change that
# writes each run of repeated rows with one join. "cascade20-windows" was
# computed on the parent of the change that sizes every window by entries.
# "sweep-400" was computed on the parent of the change that tests the
# scan's blocks one species at a time. "spectrum-singular-basis" was
# computed on the parent of the change that leaves the left vectors unset
# when the right vectors are linearly dependent. "spectrum-pair" was
# computed on the change that folded the biorthogonality report into
# `spectrum`; the CI workflow pinned it there until this file became the
# one place that pins output bytes. "spectrum-pair" and "spectrum-stochastic"
# were re-pinned on the change that reports the eigenvector basis's
# condition number as `basis_condition` in place of `max_violation` and
# `passed`; that block is the only difference from their earlier bytes.
# "spectrum-split-jordan" was computed on the change that decides
# `defective` from that condition number; its parent wrote `defective:
# false` and a stationary mix of [0.3, 0.7] there. "spectrum-identity",
# "spectrum-singular-basis", "spectrum-split-jordan" and
# "spectrum-stochastic" were re-pinned on the change that keeps the left
# vectors exactly as `inv` returns them and drops the coinciding-eigenvalue
# refusal; the `biorthogonality` block is the only difference from their
# earlier bytes. The identity now reports a condition number of 1.0, the
# singular basis the "linearly dependent" refusal, and the other two move
# in the condition number's last digits.
GOLDEN = {
    "backward50": {
        "stdout": "horizon=10 offender=species_23\n",
    },
    "cascade40": {
        "t.csv": "d2ceb0380e9dd50f5142416fa0cc6809c81ae35ebd4472d011e4fe9059b923aa",
        "t.csv.summary.json": "dc02aced41e0488fdb90e42c549a560f4ec414befc2a7486eae2fdb751b5dc98",
        "stdout": "",
    },
    "cascade20-windows": {
        "t.csv": "dfd10123efd27d165af2600756310cee0fe315f963704c07b74ad3720b4e4df1",
        "t.csv.summary.json": "a47c444cbecab7c5d9121f9d17216f43346c1c51f035fec525f5547b78d56fe2",
        "stdout": "",
    },
    "coexistence": {
        "t.csv": "6cf4bdd40eedb39d6e8f42271d4b9f8708e7c677d4b1ee2afe66d69e38d49c09",
        "t.csv.summary.json": "03dc58c098596ef1f7733b13aae5ec6ce479e52804cbbedc1bb8cbd59e03b80b",
        "stdout": "",
    },
    "fixed-point-long-tail": {
        "t.csv": "c580d41d776d153e1151b6e6b9ecdb64e6c8c8415ada6ffc81659c7f3859928a",
        "t.csv.summary.json": "751784373c341406bb0505253deb15ec9f6c86d468ebb44ad40addcf6b54db1b",
        "stdout": "",
    },
    "fixed-point-tail": {
        "t.csv": "ec4e5534f1dd1138bc8533b1a06cbc24825a19a4ac307ae1b277e9f20c5c3936",
        "t.csv.summary.json": "751784373c341406bb0505253deb15ec9f6c86d468ebb44ad40addcf6b54db1b",
        "stdout": "",
    },
    "generator": {
        "t.csv": "705cc16a09836573d2f2e1e0da40da2458d7a023180f7c08e40a04defb2aa054",
        "t.csv.summary.json": "1cce2c2e99852a63b8e665c91405d18d5a843f2a4b6405c84cb3056614c35187",
        "stdout": "",
    },
    "monotone-extinction": {
        "t.csv": "de8fc1e642abf4454fd68dd09510adfb95e1538e70897f2d9840091e2183a636",
        "t.csv.summary.json": "d3ecd4e9222b47fb6275d7aa754693e7f00227c963e2c3e9359de7f234e70793",
        "stdout": "",
    },
    "spectrum-identity": {
        "s.json": "ad1d065c82ae7d97ca8fb37521a7089485cfbee678d59be1c7707651e0b81592",
        "stdout": "",
    },
    "spectrum-pair": {
        "s.json": "444cccdb5c46cbb02048c4795e1f9194b5d535f9964cd45bf8e26eabed903872",
        "stdout": "",
    },
    "spectrum-singular-basis": {
        "s.json": "7dcbf05cf6b2cc303c893a4c3ebf4087568d220b8bcc0c049d88e0f57c23794d",
        "stdout": "",
    },
    "spectrum-split-jordan": {
        "s.json": "36f0eb9768f24f39c733dc46cab9a88d6dfc81fbe0073912709fb85dadf1385b",
        "stdout": "",
    },
    "spectrum-stochastic": {
        "s.json": "e19aee210ef3f18a9c47ad5ef1e94a04e2c30c7e06399e5edbd867a09635b48e",
        "stdout": "",
    },
    "sweep": {
        "sweep.csv": "7951c94b363402dce4be0945beacaf2321d93d39157b0f20efd12c530e991700",
        "stdout": "",
    },
    "sweep-400": {
        "sweep.csv": "a0d2fa63da35acad2bb9002c9a01359c7d14232907c5ba5383845df70a869324",
        "stdout": "",
    },
    "unstable": {
        "t.csv": "272e8eef10f2f453b0bff7b07e3d3173563e765b2d245eab8ae5d80ed54efbde",
        "t.csv.summary.json": "cfaf6bcb1ba155d8f645f21e1f2b83fe2a047743105f0f9cc0a6729a7a777568",
        "stdout": "",
    },
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(directory: Path, scenario, argv, monkeypatch):
    if scenario is not None:
        (directory / "in.json").write_text(json.dumps(scenario), encoding="utf-8")
    monkeypatch.chdir(directory)
    return main(list(argv))


@pytest.mark.parametrize("label", sorted(PASSING))
def test_outputs_are_byte_identical(label, tmp_path, monkeypatch, capsys):
    scenario, argv, outputs = PASSING[label]
    assert run(tmp_path, scenario, argv, monkeypatch) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digests = {name: sha256(tmp_path / name) for name in outputs}
    digests["stdout"] = captured.out
    assert digests == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(FAILING))
def test_failures_keep_exit_code_and_stderr(label, tmp_path, monkeypatch, capsys):
    scenario, argv, code, stderr = FAILING[label]
    assert run(tmp_path, scenario, argv, monkeypatch) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["in.json"] if scenario else [])


def test_fixed_point_tail_mostly_repeats(tmp_path, monkeypatch):
    # Keeps the case above exercising the reuse of a repeated row's cells.
    scenario, argv, _ = PASSING["fixed-point-tail"]
    assert run(tmp_path, scenario, argv, monkeypatch) == 0
    cells = [line.split(",")[2:-1] for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
    repeats = sum(row == before for before, row in zip(cells, cells[1:]))
    assert len(cells) == 401
    assert repeats > len(cells) / 2


def module_env(**extra: str) -> dict:
    """The environment for ``python -m evosum.cli`` in a subprocess: this evosum first on PYTHONPATH."""
    package_root = str(Path(evosum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_module(directory: Path, argv, threads: int) -> None:
    """``python -m evosum.cli *argv`` in a subprocess with ``threads`` OpenBLAS threads."""
    env = module_env(OPENBLAS_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-m", "evosum.cli", *argv], cwd=directory, env=env, check=True, timeout=120)


def test_blas_thread_count(tmp_path):
    # README "Determinism": at n=300 `eig` and `inv` round differently at one
    # and two threads, so only the engine's outputs are compared across counts.
    scenario = entries(random_competitive(300, 0.5, 0.3, 1).entries, [1] * 300, config={"max_steps": 300})
    (tmp_path / "in.json").write_text(json.dumps(scenario), encoding="utf-8")
    for threads in (1, 2):
        run_module(tmp_path, ["simulate", "--scenario", "in.json", "--out", f"t{threads}.csv"], threads)
    for repeat in (1, 2):
        run_module(tmp_path, ["spectrum", "--scenario", "in.json", "--out", f"s{repeat}.json"], 2)
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    summaries = [json.loads((tmp_path / f"t{threads}.csv.summary.json").read_text()) for threads in (1, 2)]
    for summary in summaries:
        del summary["spectral"]
    assert summaries[0] == summaries[1]
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
