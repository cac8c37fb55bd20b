"""Command-line interface: simulate, spectrum, classify, backward, sweep.

Outputs are deterministic: floats are written with their shortest
round-tripping repr and JSON keys are sorted, so identical inputs produce
byte-identical files. All files are written atomically (temp file plus
rename), so a failed run never leaves a partial output behind.

Exit codes: 0 success, 2 scenario/usage parse error, 3 validation error,
4 numerical failure (singular or degenerate), 5 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from dataclasses import replace

from .core import make_population, two_species_matrix
from .dynamics import (
    ActiveSystem,
    SimulationConfig,
    Trajectory,
    elimination_time_scan,
    evolve,
    evolve_backward,
)
from .errors import NumericalError, ScenarioParseError, ValidationError
from .scenario import Scenario, _atomic_write, _json_text, load_scenario
from .spectral import SpectralSummary, check_biorthogonality, eigendecompose
from .two_species import Regime, TwoSpeciesParams, classify_regime, predict_winner

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _fmt(x: float) -> str:
    return repr(float(x))


def _trajectory_lines(trajectory: Trajectory, names: tuple[str, ...]) -> Iterator[str]:
    yield "step,tau," + ",".join(names) + ",event\n"
    columns = zip(
        trajectory.steps.tolist(),
        trajectory.fractions.tolist(),
        trajectory.values,
        trajectory.event_species.tolist(),
    )
    for step, tau, values, species in columns:
        event = "" if species < 0 else f"elim:{names[species]}"
        yield f"{step},{tau!r},{','.join(map(repr, values.tolist()))},{event}\n"


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
    scenario = load_scenario(args.scenario)
    if args.max_steps is not None:
        scenario = replace(scenario, config=replace(scenario.config, max_steps=args.max_steps))
    trajectory = evolve(
        ActiveSystem(matrix=scenario.matrix, populations=scenario.initial),
        scenario.config,
    )
    names = scenario.species_names
    summary = {
        "terminal_populations": trajectory.values[-1].tolist(),
        "exit_reason": trajectory.terminated_reason.value,
        "events": [
            {
                "step": e.step_index,
                "fraction": e.fraction,
                "species_id": e.species_id,
                "species": names[e.species_id],
                "neg_offdiag_before": e.neg_offdiag_before,
                "neg_offdiag_after": e.neg_offdiag_after,
            }
            for e in trajectory.events
        ],
        "spectral": _spectral_digest(eigendecompose(trajectory.final_system.matrix)),
        "two_species": _two_species_report(scenario),
        "seed": scenario.seed,
    }
    summary_path = args.summary or args.out + ".summary.json"
    _atomic_write(args.out, _trajectory_lines(trajectory, names))
    _atomic_write(summary_path, [_json_text(summary)])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    scenario = load_scenario(args.scenario)
    summary = eigendecompose(scenario.matrix)
    report = _spectral_digest(summary)
    try:
        check = check_biorthogonality(summary, tol=1e-8)
        report["biorthogonality"] = {
            "max_violation": check.max_violation,
            "passed": check.passed,
        }
    except NumericalError as exc:
        report["biorthogonality"] = {"error": str(exc)}
    _atomic_write(args.out, [_json_text(report)])
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

    def builder(scale: float):
        return two_species_matrix(args.alpha_per_scale * scale, args.beta_per_scale * scale)

    rows = elimination_time_scan(builder, initial, args.scales, config)
    lines = ["scale,steps,status"]
    for row in rows:
        if row.steps is None:
            lines.append(f"{_fmt(row.scale)},,no-elimination")
        else:
            lines.append(f"{_fmt(row.scale)},{row.steps},ok")
    _atomic_write(args.out, ["\n".join(lines) + "\n"])
    return EXIT_OK


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
