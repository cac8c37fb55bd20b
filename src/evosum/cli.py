"""Command-line interface: simulate, spectrum, classify, backward, sweep.

Outputs are deterministic: floats are written with their shortest
round-tripping repr and JSON keys are sorted, so identical inputs produce
byte-identical files. Every command writes its files inside
``_atomic_files``, so a run that fails leaves each output as it was.
``simulate`` writes the trajectory CSV while the engine runs: each window
of rows that ``evolve`` hands over is formatted into the CSV's temp file
as it arrives, so the command holds about one window of rows however
long the run. The last window also carries the run's end, its exit
reason and reduced matrix; the summary is built from the events, the
last row and that end, and written once the CSV is.
The trajectory CSV formats a row's populations only when their bits
differ from the row before, in the same window or the one before, so its
cost scales with the number of distinct consecutive rows: a run held at
its fixed point reuses one string for the whole tail. The CSV is built a
window at a time, not a row at a time: one vectorized comparison per
window finds the repeated rows, and the lines of each run of repeated
rows without an event are one join, one string, so a run held at its
fixed point costs one string per window, not one per row. The file's
buffer gathers the strings into writes.

Exit codes: 0 success, 2 scenario/usage parse error (including `simulate`
with `--out` and `--summary` naming the same file), 3 validation error,
4 numerical failure (singular or degenerate), 5 I/O error (including
`simulate` with `--out` or `--summary` naming a directory).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import tempfile
from collections.abc import Iterator
from dataclasses import replace
from typing import TextIO

import numpy as np

from .core import _two_species_family, make_population
from .dynamics import SimulationConfig, elimination_time_scan, evolve, evolve_backward
from .errors import NumericalError, ScenarioParseError, ValidationError
from .scenario import Scenario, load_scenario
from .spectral import SpectralSummary, check_biorthogonality, eigendecompose
from .two_species import Regime, TwoSpeciesParams, classify_regime, predict_winner

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _atomic_files(*paths: str) -> Iterator[tuple[TextIO, ...]]:
    """One open UTF-8 temp file beside each of ``paths``, renamed onto them all on a clean exit.

    Every temp file is written and closed before the first rename, so a
    failure while writing any of them leaves every target as it was: on
    any exception every temp file is closed and removed. ``mkstemp``
    creates its file with mode 0600, so before the renames each temp file
    is given ``0o666 & ~umask``, the mode ``open()`` creates a new file
    with; a replaced output gets that mode too.
    """
    umask = os.umask(0)  # the only portable way to read it is to set it
    os.umask(umask)
    temps = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                directory = os.path.dirname(os.path.abspath(path)) or "."
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".evosum-", suffix=".tmp")
                temps.append(tmp)
                files.append(stack.enter_context(open(fd, "w", encoding="utf-8")))
            yield tuple(files)
        for tmp in temps:
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _write_trajectory(run, names: tuple[str, ...], fh: TextIO):
    """Write the trajectory CSV of ``run``, an ``evolve`` generator, to ``fh``, a span at a time.

    The header comes first. Each window is cut into spans where a row's
    bits differ from the row before (in the same window or the one before)
    or an event row starts or ends. A span is one event row or a run of
    rows with the same cells, whose lines are one join, and each span is
    one ``fh.write``; the file's buffer gathers them into writes. Returns
    what the summary reads: ``(events, terminal_row, end)``, every event of
    the run, its last row as floats and the last window's ``end``.
    """
    write = fh.write
    write("step,tau," + ",".join(names) + ",event\n")
    last = cells = None  # the bits of the row before and its formatted cells
    start = 0  # the run's row index of the window's first row
    run_events: list = []
    for steps, values, events, end in run:
        marks = {e.row_index - start: e for e in events}
        bits = values.view(np.int64)
        rows = len(steps)
        # A run at its fixed point repeats its row; compare bits, not values,
        # since -0.0 == 0.0 but their reprs differ.
        fresh = np.empty(rows, dtype=bool)
        fresh[0] = last is None or bool((bits[0] != last).any())
        np.any(bits[1:] != bits[:-1], axis=1, out=fresh[1:])
        cuts = fresh.copy()
        cuts[0] = True
        for k in marks:
            cuts[k : k + 2] = True
        edges = np.flatnonzero(cuts)
        formats = fresh[edges].tolist()
        edges = edges.tolist()
        step_list = steps.tolist()
        for a, b, formats_cells in zip(edges, edges[1:] + [rows], formats):
            if formats_cells:
                cells = ",".join(map(repr, values[a].tolist()))
            e = marks.get(a)
            if e is not None:
                write(f"{step_list[a]},{e.fraction!r},{cells},elim:{names[e.species_id]}\n")
            else:
                suffix = f",0.0,{cells},\n"
                write(suffix.join(map(str, step_list[a:b])) + suffix)
        start += rows
        run_events += events
        # Let the engine free this window before it fills the next.
        last = bits[-1].copy()
        del steps, values, bits
    return run_events, last.view(np.float64).tolist(), end


def _spectral_digest(summary: SpectralSummary) -> dict:
    return {
        "eigenvalues": [[z.real, z.imag] for z in summary.eigenvalues],
        "stationary": None
        if summary.stationary is None
        else [float(x) for x in summary.stationary.values],
        "lambda2_modulus": summary.lambda2_modulus,
        "leading_degenerate": summary.leading_degenerate,
        "stationary_mixed_sign": summary.stationary_mixed_sign,
        "defective": summary.defective,
    }


def _two_species_report(scenario: Scenario) -> dict | None:
    if scenario.matrix.n != 2:
        return None
    entries = scenario.matrix.entries
    alpha, beta = float(entries[1, 0]), float(entries[0, 1])
    a = float(scenario.initial.values[0])
    regime = classify_regime(alpha, beta)
    winner = predict_winner(TwoSpeciesParams(alpha=alpha, beta=beta, a=a))
    return {"regime": regime.value, "predicted_winner": winner.value}


def cmd_simulate(args) -> int:
    summary_path = args.summary or args.out + ".summary.json"
    if os.path.realpath(summary_path) == os.path.realpath(args.out):
        # Both renames would succeed and the summary would replace the CSV.
        raise ScenarioParseError(f"--out and --summary name the same file: {args.out}")
    for path in (args.out, summary_path):
        if os.path.isdir(path) and not os.path.islink(path):
            # Renaming onto a directory fails, and for the summary it would
            # fail only after the CSV had been replaced.
            raise IsADirectoryError(f"output is a directory: {path}")
    scenario = load_scenario(args.scenario)
    if args.max_steps is not None:
        scenario = replace(scenario, config=replace(scenario.config, max_steps=args.max_steps))
    run = evolve(scenario.matrix, scenario.initial, scenario.config)
    names = scenario.species_names
    with _atomic_files(args.out, summary_path) as (csv, summary):
        events, terminal, (reason, final_matrix) = _write_trajectory(run, names, csv)
        report = {
            "terminal_populations": terminal,
            "exit_reason": reason.value,
            "events": [
                {
                    "step": e.step_index,
                    "fraction": e.fraction,
                    "species_id": e.species_id,
                    "species": names[e.species_id],
                    "neg_offdiag_before": e.neg_offdiag_before,
                    "neg_offdiag_after": e.neg_offdiag_after,
                }
                for e in events
            ],
            "spectral": _spectral_digest(eigendecompose(final_matrix)),
            "two_species": _two_species_report(scenario),
            "seed": scenario.seed,
        }
        summary.write(_json_text(report))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    scenario = load_scenario(args.scenario)
    summary = eigendecompose(scenario.matrix)
    report = _spectral_digest(summary)
    try:
        violation = check_biorthogonality(summary)
        report["biorthogonality"] = {"max_violation": violation, "passed": violation < 1e-8}
    except NumericalError as exc:
        report["biorthogonality"] = {"error": str(exc)}
    with _atomic_files(args.out) as (out,):
        out.write(_json_text(report))
    return EXIT_OK


def cmd_classify(args) -> int:
    params = TwoSpeciesParams(alpha=args.alpha, beta=args.beta, a=args.a)  # checks all three
    regime = classify_regime(params.alpha, params.beta)
    if regime is Regime.DEGENERATE:
        print(regime.value)
    else:
        print(f"{regime.value}, {predict_winner(params).value}")
    return EXIT_OK


def cmd_backward(args) -> int:
    scenario = load_scenario(args.scenario)
    report = evolve_backward(scenario.matrix, scenario.initial, args.max_steps)
    offender = "none" if report.offender is None else scenario.species_names[report.offender]
    print(f"horizon={report.horizon} offender={offender}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    initial = make_population(args.initial)
    config = SimulationConfig(max_steps=args.max_steps)
    family = _two_species_family(args.alpha_per_scale, args.beta_per_scale, args.scales)
    steps = elimination_time_scan(family, initial, config)
    lines = ["scale,steps,status"]
    for scale, k in zip(args.scales, steps):
        if k is None:
            lines.append(f"{_fmt(scale)},,no-elimination")
        else:
            lines.append(f"{_fmt(scale)},{k},ok")
    with _atomic_files(args.out) as (out,):
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


# argparse reads an argument as a negative number, not an option, only when
# it matches -\d+ or -\d*\.\d+. repr also writes exponents (-1e-05) and
# -inf, and no evosum option looks like a number, so a minus before anything
# `float` reads as a literal (digit groups with `_`, a decimal point, an
# exponent), or before inf, infinity or nan, is read as a number too.
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[-+]?{_DIGITS})?$"
    r"|^-(?:inf|infinity|nan)$",
    re.IGNORECASE,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evosum",
        description="Conserved-sum linear evolution of competing species.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a scenario and write trajectory CSV")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--out", required=True, help="trajectory CSV path")
    simulate.add_argument("--summary", help="summary JSON path (default: <out>.summary.json)")
    simulate.add_argument("--max-steps", type=int, dest="max_steps")
    simulate.set_defaults(func=cmd_simulate)

    spectrum = sub.add_parser("spectrum", help="eigenstructure of a scenario's matrix")
    spectrum.add_argument("--scenario", required=True)
    spectrum.add_argument("--out", required=True, help="spectrum JSON path")
    spectrum.set_defaults(func=cmd_spectrum)

    classify = sub.add_parser("classify", help="two-species regime and predicted winner")
    classify.add_argument("alpha", type=float)
    classify.add_argument("beta", type=float)
    classify.add_argument("a", type=float, help="initial share of species 1")
    classify.set_defaults(func=cmd_classify)

    backward = sub.add_parser("backward", help="backward-evolution horizon of a scenario")
    backward.add_argument("--scenario", required=True)
    backward.add_argument("--max-steps", type=int, dest="max_steps", default=100)
    backward.set_defaults(func=cmd_backward)

    sweep = sub.add_parser("sweep", help="steps-to-elimination across coupling scales")
    sweep.add_argument("--alpha-per-scale", type=float, required=True, dest="alpha_per_scale")
    sweep.add_argument("--beta-per-scale", type=float, required=True, dest="beta_per_scale")
    sweep.add_argument("--scales", type=float, nargs="+", required=True)
    sweep.add_argument("--initial", type=float, nargs="+", default=[0.5, 0.5])
    sweep.add_argument("--out", required=True, help="sweep CSV path")
    sweep.add_argument("--max-steps", type=int, dest="max_steps", default=10_000)
    sweep.set_defaults(func=cmd_sweep)

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
