"""Run one workload's CLI invocations in a fresh interpreter and time them.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) names the evosum source directory, the argv of
every invocation, the files each writes, how long to measure and whether to
trace. One untimed pass warms caches first. Timed passes then repeat until
the time is up (at least ``MIN_PASSES``); with tracing on, traced and
untraced passes alternate so the two can be compared. Each invocation goes
through ``evosum.cli.main(argv)`` in this process with its stdout and stderr
captured, and a fixed reference kernel is timed before the first invocation
and after each one. The result records, per pass, each invocation's wall
time, the reference samples around it, exit codes, captured output and
output digests, plus the process's peak RSS; spans, when traced, go to a
file of their own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import numpy as np

MIN_PASSES = 2


def reference_kernel() -> float:
    """Seconds this process takes for fixed work in the CLI's mix.

    Small matvecs in a Python loop, float ``repr``, JSON parsing, copies of
    a 200x200 matrix and one small ``eig``: about 25 ms. It tracks how fast
    the machine runs right now, since a shared host's speed shifts by up to
    2x for tens of seconds at a time. It never calls evosum, so a change to
    the package cannot move it.
    """
    start = perf_counter()
    m = np.eye(20) * 0.9 + 0.005
    v = np.full(20, 0.05)
    for _ in range(1200):
        w = m @ v
        np.flatnonzero(w < -1.0)
        float(np.abs(w - v).sum())
        v = w
    json.loads(json.dumps((np.arange(7000) * 0.1234567).tolist()))
    big = np.arange(40000.0).reshape(200, 200)
    for _ in range(17):
        big = np.delete(np.delete(big, 0, axis=0), 0, axis=1)
        big = np.pad(big, ((0, 1), (0, 1)))
    np.linalg.eig(np.eye(60) + np.outer(np.arange(60.0), np.ones(60)) * 1e-3)
    return perf_counter() - start


def _reference(busy_s: float) -> list[float]:
    """Reference samples costing about 4% of ``busy_s`` (1 to 5 of them)."""
    samples = [reference_kernel()]
    while len(samples) < 5 and sum(samples) < 0.04 * busy_s:
        samples.append(reference_kernel())
    return samples


def _pass(cli, invocations) -> dict:
    """Run every invocation once, timing each, with reference samples between them."""
    record = {"exit_codes": [], "stdout": [], "stderr": [], "invocation_s": []}
    record["ref_s"] = [_reference(1.0)]
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = cli.main(list(argv))
            record["invocation_s"].append(perf_counter() - start)
        record["exit_codes"].append(code)
        record["stdout"].append(out.getvalue())
        record["stderr"].append(err.getvalue())
        record["ref_s"].append(_reference(record["invocation_s"][-1]))
    return record


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import evosum.cli as cli

    from tracing import Tracer
    from workloads import sha256_file

    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(plan["src"]):
        print(f"evosum imported from {package_dir}, not from {plan['src']}", file=sys.stderr)
        return 2

    invocations = plan["invocations"]
    outputs = plan["outputs"]
    tracer = Tracer() if plan["trace"] else None

    _pass(cli, invocations)  # warm-up, not timed
    passes = []
    deadline = perf_counter() + plan["seconds"]
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            record = _pass(cli, invocations)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        record["digests"] = [
            {path: sha256_file(path) for path in files if os.path.exists(path)}
            for files in outputs
        ]
        passes.append(record)

    result = {
        "evosum_dir": package_dir,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.save(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
