"""evosum benchmark: time CLI workloads end to end, check outputs, trace layers.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate-dense, extinction-cascade, sweep-scan, matrix-analysis
(see bench/README.md for why each exists). The run generates the
workload's scenario files from the seed, times a fresh interpreter's
``import evosum.cli`` several times, then runs the workload's invocations
through ``evosum.cli.main(argv)`` in a separate worker process for S
seconds, checks every output against an independent oracle and prints a
readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker alternates traced and untraced passes and the metrics are the
per-layer ones. The full record (machine, inputs and their SHA-256,
per-pass samples, verdicts, output digests) is written to
``.bench_work/results/``. The exit code is 0 unless an output fails a
check that is not a known defect (1) or the evosum sources are missing (2).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 7
# wall_s is a pass's wall time rescaled to a machine on which the worker's
# reference kernel takes REFERENCE_S (about this machine's typical speed):
# each invocation's wall time x REFERENCE_S / (mean of the median reference
# samples just before and after it), summed over the pass. A shared host's
# speed shifts by up to 2x for tens of seconds at a time; unscaled, that
# shift, not the program, dominated the run-to-run spread.
REFERENCE_S = 0.02
WORKER_TIMEOUT_S = 150

# BLAS threads are pinned to one: with two threads eigendecompose(500) showed
# rare multi-second outliers that one thread never did.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}

COMMANDS = ("simulate", "sweep", "spectrum", "backward")


# Spans whose summed self time is reported as "<span>.s", and whose call
# count is reported as "<span>.calls".
TIMED_SPANS = (
    "dynamics.evolve",
    "dynamics.crossing_fraction",
    "dynamics.elimination_time_scan",
    "dynamics.evolve_backward",
    "spectral.eigendecompose",
    "spectral.check_biorthogonality",
    "scenario.load_scenario",
    "core.construct",
    "core.negative_offdiag_count",
)
COUNTED_SPANS = (
    "dynamics.evolve",
    "dynamics.crossing_fraction",
    "dynamics.evolve_backward",
    "spectral.eigendecompose",
    "scenario.load_scenario",
    "core.construct",
    "core.negative_offdiag_count",
)

PER_LAYER_UNITS = {
    **{f"cli.{command}.s": "s" for command in COMMANDS},
    "cli.bytes_out": "bytes",
    "cli.values_formatted": "count",
    **{span + ".s": "s" for span in TIMED_SPANS},
    **{span + ".calls": "count" for span in COUNTED_SPANS},
    "dynamics.steps": "count",
    "dynamics.eliminations": "count",
    "dynamics.snapshots": "count",
    "dynamics.us_per_step": "us",
    "dynamics.step_useful_ratio": "ratio",
    "dynamics.scan.useful_step_ratio": "ratio",
    "dynamics.backward.solves": "count",
    "spectral.eig_n": "count",
    "spectral.near_equal_pairs": "count",
    "scenario.bytes_in": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def machine_info() -> dict:
    import numpy as np

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": PINNED_ENV,
    }


def measure_setup(env: dict) -> list[float]:
    """Wall time of a fresh interpreter importing evosum.cli (bytecode already cached)."""
    command = [sys.executable, "-c", "import evosum.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        samples.append(perf_counter() - start)
    return samples


def scaled_wall(record: dict) -> float:
    """A pass's wall time at the reference machine speed (see REFERENCE_S)."""
    refs = [statistics.median(samples) for samples in record["ref_s"]]
    return sum(
        seconds * 2.0 * REFERENCE_S / (refs[i] + refs[i + 1])
        for i, seconds in enumerate(record["invocation_s"])
    )


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(spans, workload, traced_walls, untraced_walls, counts) -> dict[str, float]:
    """Per-layer numbers: median over traced passes of span self times, plus counts."""
    import numpy as np
    from tracing import ROOT as ROOT_SPAN

    n_inv = len(workload.invocations)
    n_passes = len(traced_walls)
    pass_of = (spans.invocation - 1) // n_inv
    command_of = np.array([inv.command for inv in workload.invocations])[
        (spans.invocation - 1) % n_inv
    ]

    def per_pass(mask, weights=None) -> np.ndarray:
        selected = None if weights is None else weights[mask]
        return np.bincount(pass_of[mask], weights=selected, minlength=n_passes)

    def self_s(mask) -> np.ndarray:
        return per_pass(mask, spans.self_time)

    metrics: dict[str, float] = {}
    for command in COMMANDS:
        mask = spans.named(ROOT_SPAN) & (command_of == command)
        metrics[f"cli.{command}.s"] = _median(self_s(mask))
    for span in TIMED_SPANS:
        metrics[span + ".s"] = _median(self_s(spans.named(span)))
    for span in COUNTED_SPANS:
        metrics[span + ".calls"] = _median(per_pass(spans.named(span)))

    steps = counts["steps"]
    crossings = spans.named("dynamics.crossing_fraction")
    step_self = self_s(spans.named("dynamics.evolve")) + self_s(crossings)
    scan_crossings = _median(per_pass(crossings & spans.under("dynamics.elimination_time_scan")))
    crossing_calls = metrics["dynamics.crossing_fraction.calls"]
    metrics.update(
        {
            "cli.bytes_out": counts["bytes_out"],
            "cli.values_formatted": counts["values_formatted"],
            "dynamics.steps": steps,
            "dynamics.eliminations": counts["eliminations"],
            "dynamics.snapshots": counts["snapshots"],
            "dynamics.us_per_step": _median(step_self / steps * 1e6) if steps else 0.0,
            "dynamics.step_useful_ratio": steps / crossing_calls if crossing_calls else 0.0,
            "dynamics.scan.useful_step_ratio": counts["scan_steps"] / scan_crossings
            if scan_crossings
            else 0.0,
            "dynamics.backward.solves": counts["backward_solves"],
            "spectral.eig_n": counts["eig_n"],
            "spectral.near_equal_pairs": counts["near_equal_pairs"],
            "scenario.bytes_in": counts["bytes_in"],
            "trace.overhead_s": _median(traced_walls) - _median(untraced_walls),
            "trace.spans": len(spans) / n_passes,
        }
    )
    return metrics


def _run_worker(workload, seconds: float, trace: bool, workdir: str, env: dict) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "worker.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "src": SRC,
                "seconds": seconds,
                "trace": trace,
                "spans": os.path.join(workdir, "spans.npz"),
                "invocations": [inv.argv for inv in workload.invocations],
                "outputs": [inv.outputs for inv in workload.invocations],
            },
            fh,
        )
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan_path, result_path],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _tally(workload, passes: list[dict], verdicts: list) -> tuple[int, list[str]]:
    """Failed invocations over all passes, and the failures no known defect explains.

    The oracles judge the last pass; every other pass must repeat its exit
    codes, stdout and output digests exactly.
    """
    reference = passes[-1]
    failed = 0
    unexplained = []
    for p, record in enumerate(passes):
        for i, inv in enumerate(workload.invocations):
            repeated = all(
                record[key][i] == reference[key][i] for key in ("exit_codes", "stdout", "digests")
            )
            if not repeated:
                unexplained.append(f"pass {p}: {inv.label}: output differs from the last pass")
            if not (repeated and verdicts[i].ok):
                failed += 1
    unexplained += [
        f"{inv.label}: {v.reason}"
        for inv, v in zip(workload.invocations, verdicts)
        if not v.ok and not v.known_defect
    ]
    return failed, unexplained


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, measure and check one workload; return the full result record."""
    import oracles
    import workloads
    from tracing import Spans

    env = child_env()
    workdir = os.path.join(WORK, f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = workloads.build(workload_name, seed, workdir)
        setup = measure_setup(env)
        worker = _run_worker(workload, seconds, trace, workdir, env)
        passes = worker["passes"]
        last = passes[-1]

        verdicts = [
            oracles.check(inv, last["exit_codes"][i], last["stdout"][i])
            for i, inv in enumerate(workload.invocations)
        ]
        counts = {key: sum(v.counts[key] for v in verdicts) for key in oracles.COUNTS}
        failed, unexplained = _tally(workload, passes, verdicts)
        attempted = len(passes) * len(workload.invocations)

        untraced = [scaled_wall(p) for p in passes if not p["traced"]]
        traced = [scaled_wall(p) for p in passes if p["traced"]]
        if trace:
            spans = Spans(os.path.join(workdir, "spans.npz"))
            metrics = layer_metrics(spans, workload, traced, untraced, counts)
            units = PER_LAYER_UNITS
        else:
            metrics = {
                "setup_s": _median(setup),
                "wall_s": _median(untraced),
                "peak_rss_mb": worker["peak_rss_kib"] / 1024.0,
                "ok_ratio": (attempted - failed) / attempted,
            }
            units = END_TO_END_UNITS

        return {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "machine": machine_info(),
            "evosum_dir": worker["evosum_dir"],
            "inputs": workload.inputs,
            "setup_s_samples": setup,
            "wall_s_samples": untraced,
            "traced_wall_s_samples": traced,
            "raw_wall_s_samples": [sum(p["invocation_s"]) for p in passes if not p["traced"]],
            "ref_s_samples": [p["ref_s"] for p in passes if not p["traced"]],
            "passes": len(passes),
            "failed_ratio": failed / attempted,
            "counts": counts,
            "invocations": [
                {
                    "label": inv.label,
                    "argv": inv.argv,
                    "exit_code": last["exit_codes"][i],
                    "stdout": last["stdout"][i],
                    "stderr": last["stderr"][i],
                    "ok": v.ok,
                    "known_defect": v.known_defect,
                    "reason": v.reason,
                    "outputs": {
                        os.path.relpath(path, workdir): {"bytes": os.path.getsize(path), "sha256": digest}
                        for path, digest in last["digests"][i].items()
                    },
                }
                for i, (inv, v) in enumerate(zip(workload.invocations, verdicts))
            ],
            "unknown_failures": unexplained,
            "correct": not unexplained,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict) -> str:
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
        f"passes {result['passes']}  ({len(result['wall_s_samples'])} untraced)",
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    lines.append(
        f"  {'failed_ratio':34s} {result['failed_ratio']:.6g} "
        f"({result['failed']} of {result['attempted']} invocations)"
    )
    for inv in result["invocations"]:
        if not inv["ok"]:
            kind = "known defect" if inv["known_defect"] else "FAILED"
            lines.append(f"  {kind}: {inv['label']}: {inv['reason']}")
    for failure in result["unknown_failures"]:
        lines.append(f"  unexpected: {failure}")
    return "\n".join(lines)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "evosum", "cli.py")):
        print(f"error: evosum sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads in this process
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(report(result))
    print(f"  results: {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
