"""Self-checks of the benchmark itself.

Run from the repository root (takes about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

from workloads import WORKLOADS  # noqa: E402

# Counts derived from outputs or array sizes; they must not depend on timing.
COMPUTED = (
    "dynamics.steps",
    "dynamics.eliminations",
    "dynamics.snapshots",
    "cli.bytes_out",
    "cli.values_formatted",
    "spectral.eig_n",
    "spectral.near_equal_pairs",
    "dynamics.backward.solves",
    "scenario.bytes_in",
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts_and_digests(workload):
    first, second = (run.run(workload, seed=7, seconds=0.0, trace=True) for _ in range(2))
    assert first["correct"], first["unknown_failures"]
    assert second["correct"], second["unknown_failures"]
    repeated = COMPUTED + tuple(n for n in run.PER_LAYER_UNITS if n.endswith(".calls"))
    for name in repeated:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["inputs"] == second["inputs"]
    assert [i["outputs"] for i in first["invocations"]] == [
        i["outputs"] for i in second["invocations"]
    ]
    assert [i["exit_code"] for i in first["invocations"]] == [
        i["exit_code"] for i in second["invocations"]
    ]


def test_known_defect_counts_as_failed_but_not_incorrect():
    result = run.run("matrix-analysis", seed=3, seconds=0.0, trace=False)
    assert result["correct"], result["unknown_failures"]
    refused = [i["label"] for i in result["invocations"] if not i["ok"]]
    assert refused == ["backward200"]
    assert result["failed"] == result["passes"]
    assert 0.0 < result["metrics"]["ok_ratio"]["value"] < 1.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
