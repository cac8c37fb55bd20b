"""Independent checks of every invocation's output, plus counts derived from it.

Each check reads the invocation's inputs back from its scenario file and its
outputs from disk, and returns a ``Verdict``: whether the output is right,
whether a failure is a known defect the benchmark surfaces on purpose, and
the work counts the output implies (steps, eliminations, bytes, ...). The
counts come from outputs and array sizes only, never from timers or from
the package's internal types, so they repeat exactly for the same seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from evosum.core import EvolutionMatrix
from evosum.spectral import stationary_by_iteration
from evosum.two_species import TwoSpeciesParams, closed_form

ZERO_TOL = 1e-12  # the engine's documented default zero tolerance
EIG_TOL = 1e-9  # the spectral default tolerance for "near-equal" eigenvalues
SUM_TOL = 1e-8  # trajectory rows sum to one within this over long runs
EIG_MATCH_TOL = 1e-8
STATIONARY_TOL = 1e-8
ROUND_TRIP_TOL = 1e-8
WELL_CONDITIONED = 1e8

# Work counts a verdict may carry; every pass of an invocation repeats them.
COUNTS = (
    "steps",
    "eliminations",
    "snapshots",
    "scan_steps",
    "eig_n",
    "near_equal_pairs",
    "backward_solves",
    "bytes_in",
    "bytes_out",
    "values_formatted",
)


@dataclass
class Verdict:
    ok: bool = True
    known_defect: bool = False
    reason: str = ""
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))

    def fail(self, reason: str, known_defect: bool = False) -> "Verdict":
        self.ok = False
        self.known_defect = known_defect
        self.reason = reason
        return self


class OracleMismatch(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


def _load_scenario(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    entries = np.array(data["matrix"]["entries"], dtype=float)
    initial = np.array(data["initial"], dtype=float)
    return entries, initial / initial.sum()


def _count_floats(node) -> int:
    if isinstance(node, float):
        return 1
    if isinstance(node, dict):
        return sum(_count_floats(v) for v in node.values())
    if isinstance(node, list):
        return sum(_count_floats(v) for v in node)
    return 0


def near_equal_pairs(eigenvalues: np.ndarray) -> int:
    """Pairs p < q with |w_p - w_q| <= EIG_TOL, as the pairwise loops test them."""
    close = np.abs(eigenvalues[:, None] - eigenvalues[None, :]) <= EIG_TOL
    return int((np.count_nonzero(close) - eigenvalues.size) // 2)


def _eigenvalues(report: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in report["eigenvalues"]], dtype=complex)


def _spectral_counts(verdict: Verdict, report: dict) -> None:
    w = _eigenvalues(report)
    verdict.counts["eig_n"] += w.size
    verdict.counts["near_equal_pairs"] += near_equal_pairs(w)


def _read_json(verdict: Verdict, path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    verdict.counts["bytes_out"] += os.path.getsize(path)
    verdict.counts["values_formatted"] += _count_floats(data)
    return data


def _read_csv(verdict: Verdict, path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    verdict.counts["bytes_out"] += os.path.getsize(path)
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_simulate(inv, exit_code: int, stdout: str) -> Verdict:
    verdict = Verdict()
    _require(exit_code == 0, f"exit code {exit_code}")
    csv_path, summary_path = inv.outputs
    header, rows = _read_csv(verdict, csv_path)
    names = header[2:-1]
    _require(header[:2] == ["step", "tau"] and header[-1] == "event", "bad CSV header")
    _require(len(rows) > 0 and all(len(r) == len(header) for r in rows), "ragged CSV rows")
    values = np.array([r[2:-1] for r in rows], dtype=float)
    verdict.counts["values_formatted"] += values.size + len(rows)
    sums = values.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    _require(abs(sums[worst] - 1.0) <= SUM_TOL, f"row {worst} sums to {sums[worst]!r}")
    _require(values.min() >= 0.0, f"negative population {values.min()!r}")
    elim_rows = []
    for i, row in enumerate(rows):
        event = row[-1]
        if event:
            _require(event.startswith("elim:") and event[5:] in names, f"bad event {event!r}")
            column = names.index(event[5:])
            _require(
                np.all(values[i:, column] == 0.0),
                f"{event[5:]} is not 0.0 in every row from its elimination on",
            )
            elim_rows.append((int(row[0]), float(row[1]), event[5:]))
    summary = _read_json(verdict, summary_path)
    events = [(e["step"], e["fraction"], e["species"]) for e in summary["events"]]
    _require(events == elim_rows, "summary events differ from the CSV elimination rows")
    _require(summary["terminal_populations"] == values[-1].tolist(), "terminal row mismatch")
    _spectral_counts(verdict, summary["spectral"])
    verdict.counts["steps"] += int(rows[-1][0])
    verdict.counts["eliminations"] += len(elim_rows)
    verdict.counts["snapshots"] += len(rows)
    return verdict


def _first_crossing(params: TwoSpeciesParams, max_steps: int) -> int | None:
    """First t whose step t -> t+1 drives a closed-form population below -ZERO_TOL."""
    for t in range(max_steps):
        if float(np.min(closed_form(params, t + 1))) < -ZERO_TOL:
            return t
    return None


def check_sweep(inv, exit_code: int, stdout: str) -> Verdict:
    verdict = Verdict()
    _require(exit_code == 0, f"exit code {exit_code}")
    check = inv.check
    header, rows = _read_csv(verdict, inv.outputs[0])
    _require(header == ["scale", "steps", "status"], "bad sweep header")
    _require([r[0] for r in rows] == check["scales"], "sweep scales differ from the argv")
    initial = np.array(check["initial"], dtype=float)
    for scale_text, steps, status in rows:
        scale = float(scale_text)
        params = TwoSpeciesParams(
            alpha=check["alpha_per_scale"] * scale,
            beta=check["beta_per_scale"] * scale,
            a=float(initial[0] / initial.sum()),
        )
        expected = _first_crossing(params, check["max_steps"])
        if expected is None:
            _require(status == "no-elimination" and steps == "", f"scale {scale_text}: expected none")
            continue
        _require(
            status == "ok" and steps == str(expected),
            f"scale {scale_text}: steps {steps or None} but the closed form crosses at {expected}",
        )
        verdict.counts["steps"] += expected
        verdict.counts["scan_steps"] += expected
        verdict.counts["eliminations"] += 1
    verdict.counts["values_formatted"] += len(rows)
    return verdict


def _match_eigenvalues(got: np.ndarray, reference: np.ndarray) -> float:
    """Largest distance after pairing each reported eigenvalue with its nearest unused reference."""
    _require(got.size == reference.size, f"{got.size} eigenvalues, expected {reference.size}")
    distance = np.abs(got[:, None] - reference[None, :])
    worst = 0.0
    for p in range(got.size):
        q = int(np.argmin(distance[p]))
        worst = max(worst, float(distance[p, q]))
        distance[:, q] = np.inf
    return worst


def check_spectrum(inv, exit_code: int, stdout: str) -> Verdict:
    verdict = Verdict()
    _require(exit_code == 0, f"exit code {exit_code}")
    entries, _ = _load_scenario(inv.scenario)
    report = _read_json(verdict, inv.outputs[0])
    got = _eigenvalues(report)
    worst = _match_eigenvalues(got, np.linalg.eigvals(entries))
    _require(worst <= EIG_MATCH_TOL, f"eigenvalues differ from numpy's by {worst!r}")
    if inv.check.get("stochastic"):
        _require(report["stationary"] is not None, "no stationary mix for a stochastic matrix")
        expected = stationary_by_iteration(EvolutionMatrix(entries)).values
        gap = float(np.max(np.abs(np.array(report["stationary"]) - expected)))
        _require(gap <= STATIONARY_TOL, f"stationary mix differs from iteration by {gap!r}")
    if inv.check.get("identity"):
        _require(report["leading_degenerate"], "identity not flagged leading_degenerate")
        _require(not report["defective"], "identity flagged defective")
    _spectral_counts(verdict, report)
    return verdict


def check_backward(inv, exit_code: int, stdout: str) -> Verdict:
    verdict = Verdict()
    entries, start = _load_scenario(inv.scenario)
    if exit_code == 4 and np.linalg.cond(entries) < WELL_CONDITIONED:
        return verdict.fail(
            "refused as singular although cond < 1e8 (determinant test)", known_defect=True
        )
    _require(exit_code == 0, f"exit code {exit_code}")
    verdict.counts["bytes_out"] += len(stdout.encode())
    fields = dict(part.split("=", 1) for part in stdout.split())
    horizon = int(fields["horizon"])
    max_steps = inv.check["max_steps"]
    _require(0 <= horizon <= max_steps, f"horizon {horizon} outside 0..{max_steps}")
    state = start
    for _ in range(horizon):
        state = np.linalg.solve(entries, state)
        _require(
            np.all((state >= -ZERO_TOL) & (state <= 1.0 + ZERO_TOL)),
            f"a backward step within horizon {horizon} leaves [0, 1]",
        )
    if horizon < max_steps:
        beyond = np.linalg.solve(entries, state)
        out = np.flatnonzero((beyond < -ZERO_TOL) | (beyond > 1.0 + ZERO_TOL))
        _require(out.size > 0, f"step {horizon + 1} stays in [0, 1]; horizon too short")
        _require(fields["offender"] == f"species_{out[0] + 1}", f"offender {fields['offender']}")
        verdict.counts["backward_solves"] += horizon + 1
    else:
        _require(fields["offender"] == "none", f"offender {fields['offender']} at the step cap")
        verdict.counts["backward_solves"] += horizon
    forward = state
    for _ in range(horizon):
        forward = entries @ forward
    gap = float(np.max(np.abs(forward - start)))
    _require(gap <= ROUND_TRIP_TOL, f"forward round trip misses the start by {gap!r}")
    return verdict


CHECKS = {
    "simulate": check_simulate,
    "sweep": check_sweep,
    "spectrum": check_spectrum,
    "backward": check_backward,
}


def check(inv, exit_code: int, stdout: str) -> Verdict:
    try:
        verdict = CHECKS[inv.command](inv, exit_code, stdout)
    except (OracleMismatch, OSError, KeyError, ValueError, IndexError) as exc:
        verdict = Verdict().fail(f"{type(exc).__name__}: {exc}")
    if inv.scenario is not None:
        verdict.counts["bytes_in"] += os.path.getsize(inv.scenario)
    return verdict
