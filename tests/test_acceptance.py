"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values marked as frozen were computed beforehand with the plain
brute-force iteration oracle in this file, independent of the engine.
"""

import json
import time

import numpy as np

from evosum import (
    EvolutionMatrix,
    SimulationConfig,
    TerminationReason,
    TwoSpeciesParams,
    eigendecompose,
    elimination_time_scan,
    evolve,
    evolve_backward,
    make_population,
    random_competitive,
    random_stochastic,
    stationary_by_iteration,
    two_species_matrix,
)
from evosum.cli import main
from test_dynamics import collect, survivor_values
from test_two_species import crosscheck

#: Every trajectory produced while the suite runs, checked by criterion 5.
ALL_TRAJECTORIES = []


def run(matrix, raw_start, **config):
    trajectory = collect(evolve(
        matrix,
        make_population(raw_start),
        SimulationConfig(**config) if config else SimulationConfig(),
    ))
    ALL_TRAJECTORIES.append(trajectory)
    return trajectory


def finish(number, label, start, budget, checks):
    elapsed = time.perf_counter() - start
    ok = all(good for good, _ in checks) and (budget is None or elapsed < budget)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({elapsed:.2f}s)")
    for good, message in checks:
        assert good, message
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded budget {budget}s"


def test_criterion_1_two_species_spectrum():
    start = time.perf_counter()
    summary = eigendecompose(two_species_matrix(0.1, 0.2))
    second = summary.right_vectors[1]
    checks = [
        (np.max(np.abs(summary.eigenvalues - [1.0, 0.7])) < 1e-10, "eigenvalues not {1, 0.7}"),
        (
            np.max(np.abs(summary.stationary.values - [2 / 3, 1 / 3])) < 1e-10,
            "stationary not (2/3, 1/3)",
        ),
        (np.max(np.abs(second / second[0] - [1.0, -1.0])) < 1e-10, "second mode not (1, -1)"),
    ]
    finish(1, "two-species spectrum {1, 0.7} with stationary (2/3, 1/3)", start, 1.0, checks)


def test_criterion_2_closed_form_vs_engine():
    start = time.perf_counter()
    rng = np.random.default_rng(20020530)
    worst = 0.0
    for _ in range(100):
        params = TwoSpeciesParams(
            alpha=float(rng.uniform(0.01, 0.2)),
            beta=float(rng.uniform(0.01, 0.2)),
            a=float(rng.uniform(0.0, 1.0)),
        )
        deviation, _ = crosscheck(params, steps=200)
        worst = max(worst, deviation)
    checks = [(worst < 1e-9, f"worst closed-form/engine deviation {worst:.3e}")]
    finish(2, "closed form matches engine within 1e-9 over 200 steps x 100 draws", start, 5.0, checks)


def test_criterion_3_regime_table():
    start = time.perf_counter()
    checks = []
    budgets = []

    t0 = time.perf_counter()
    coexist = run(two_species_matrix(0.1, 0.2), [0.9, 0.1], max_steps=1000)
    budgets.append(time.perf_counter() - t0)
    checks.append((coexist.events == (), "coexistence run produced an event"))
    checks.append(
        (
            np.max(np.abs(coexist.values[-1] - [2 / 3, 1 / 3])) < 1e-6,
            "coexistence run missed the stationary mix",
        )
    )

    t0 = time.perf_counter()
    extinction = run(two_species_matrix(0.1, -0.05), [0.5, 0.5], max_steps=10_000)
    budgets.append(time.perf_counter() - t0)
    events = extinction.events
    checks.append((len(events) == 1, f"expected exactly one elimination, got {len(events)}"))
    checks.append(
        (events and events[0].species_id == 0, "the species with the negative row entry must lose")
    )
    checks.append(
        (extinction.terminated_reason is TerminationReason.ALL_BUT_ONE_EXTINCT, "run did not finish")
    )

    for a, doomed in ((0.6, 1), (0.4, 0)):
        t0 = time.perf_counter()
        unstable = run(two_species_matrix(-0.05, -0.05), [a, 1 - a], max_steps=10_000)
        budgets.append(time.perf_counter() - t0)
        events = unstable.events
        checks.append(
            (
                len(events) == 1 and events[0].species_id == doomed,
                f"start a={a} should eliminate species index {doomed}",
            )
        )
    checks.append((max(budgets) < 1.0, f"slowest regime run took {max(budgets):.2f}s"))
    finish(3, "regime table: coexist / monotone loser / start-dependent winner", start, None, checks)


def test_criterion_4_markov_fixed_point_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    monotone_violations = 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        matrix = random_stochastic(n, 0.3, int(rng.integers(0, 2**31)))
        by_eig = eigendecompose(matrix).stationary.values
        by_power = stationary_by_iteration(matrix, tol=1e-12, max_iter=64).values
        worst_gap = max(worst_gap, float(np.max(np.abs(by_eig - by_power))))

        phi = np.array(make_population(rng.random(n) + 1e-3))
        distance = float(np.abs(phi - by_eig).sum())
        trajectory = run(matrix, phi, max_steps=150)
        for values in trajectory.values[1:]:
            current = float(np.abs(values - by_eig).sum())
            if current > distance + 1e-12:
                monotone_violations += 1
            distance = current
    checks = [
        (worst_gap < 1e-7, f"eigensolver vs iterated power gap {worst_gap:.3e}"),
        (monotone_violations == 0, f"{monotone_violations} monotonicity violations"),
    ]
    finish(4, "stationary oracle agreement and monotone L1 convergence (50 chains)", start, 10.0, checks)


def test_criterion_6_backward_horizon():
    start = time.perf_counter()
    checks = []

    matrix = two_species_matrix(0.1, 0.1)
    phi0 = make_population([0.6, 0.4])
    report = evolve_backward(matrix, phi0, max_steps=100)
    checks.append((report.horizon == 7, f"horizon {report.horizon}, expected exactly 7"))

    swap = EvolutionMatrix([[0.0, 1.0], [1.0, 0.0]])
    cycle = EvolutionMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    for name, permutation, raw in (("swap", swap, [0.3, 0.7]), ("3-cycle", cycle, [0.2, 0.3, 0.5])):
        rep = evolve_backward(permutation, make_population(raw), max_steps=200)
        checks.append(
            (
                rep.horizon == 200 and rep.offender is None,
                f"{name} permutation stopped early at {rep.horizon}",
            )
        )

    forward = report.endpoint.copy()
    for _ in range(report.horizon):
        forward = matrix.entries @ forward
    checks.append(
        (
            float(np.max(np.abs(forward - phi0.values))) < 1e-7,
            "backward-then-forward round trip drifted",
        )
    )
    finish(6, "backward horizon exactly 7; permutations reversible; round trip", start, None, checks)


def test_criterion_7_elimination_time_scaling():
    start = time.perf_counter()
    config = SimulationConfig(max_steps=10_000)
    family = np.stack([two_species_matrix(c, -c / 2).entries for c in (0.01, 0.02, 0.04)])
    steps = elimination_time_scan(family, make_population([0.5, 0.5]), config)
    for c in (0.01, 0.02, 0.04):
        ALL_TRAJECTORIES.append(
            collect(evolve(two_species_matrix(c, -c / 2), make_population([0.5, 0.5]), config))
        )
    checks = [(steps == [80, 40, 20], f"steps {steps}, frozen regression values [80, 40, 20]")]
    for slow, fast in zip(steps, steps[1:]):
        ratio = slow / fast
        checks.append((1.6 <= ratio <= 2.4, f"ratio {ratio:.2f} outside [1.6, 2.4]"))
    finish(7, "steps to elimination scale like 1/coupling (80/40/20)", start, 5.0, checks)


def test_criterion_8_reduced_system_stationarity():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    eliminating = 0
    worst = 0.0
    while eliminating < 12:
        n = int(rng.integers(3, 6))
        matrix = random_competitive(n, 0.12, 0.5, int(rng.integers(0, 2**31)))
        trajectory = run(
            matrix,
            rng.random(n) + 0.05,
            max_steps=20_000,
            convergence_tol=1e-13,
        )
        if not trajectory.events:
            continue
        if trajectory.terminated_reason is TerminationReason.MAX_STEPS:
            continue
        eliminating += 1
        final = trajectory.final_matrix
        terminal = survivor_values(trajectory)
        if final.n == 1:
            target = np.array([1.0])
        else:
            stationary = eigendecompose(final).stationary
            assert stationary is not None, "reduced system lost its stationary mix"
            target = stationary.values
        worst = max(worst, float(np.max(np.abs(terminal - target))))
    for a in (0.6, 0.4):
        trajectory = run(two_species_matrix(-0.05, -0.05), [a, 1 - a], max_steps=10_000)
        terminal = survivor_values(trajectory)
        worst = max(worst, float(np.max(np.abs(terminal - [1.0]))))
    checks = [
        (worst < 1e-6, f"terminal vs reduced-system stationary deviation {worst:.3e}"),
        (eliminating >= 12, "not enough eliminating runs sampled"),
    ]
    finish(8, "survivors sit on the reduced system's stationary mix", start, None, checks)


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "species_names": ["finch", "sparrow"],
                "matrix": {"two_species": {"alpha": 0.1, "beta": -0.05}},
                "initial": [0.5, 0.5],
                "seed": 4242,
            }
        ),
        encoding="utf-8",
    )
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{tag}.csv.summary.json").read_bytes()))
    checks = [
        (outputs[0][0] == outputs[1][0], "trajectory CSVs differ between reruns"),
        (outputs[0][1] == outputs[1][1], "summaries differ between reruns"),
    ]
    finish(9, "identical scenario and seed give byte-identical outputs", start, None, checks)


def test_criterion_5_conservation_suite():
    # Defined last so it also audits every trajectory the other criteria made.
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        run(random_stochastic(n, 0.3, int(rng.integers(0, 2**31))), rng.random(n) + 1e-3, max_steps=300)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        run(
            random_competitive(n, 0.12, 0.5, int(rng.integers(0, 2**31))),
            rng.random(n) + 0.05,
            max_steps=20_000,
        )
    run(two_species_matrix(0.1, -0.05), [0.5, 0.5], max_steps=10_000)

    worst_sum = 0.0
    worst_entry = 0.0
    snapshots = 0
    for trajectory in ALL_TRAJECTORIES:
        for values in trajectory.values:
            snapshots += 1
            worst_sum = max(worst_sum, abs(float(values.sum()) - 1.0))
            worst_entry = min(worst_entry, float(np.min(values)))
    checks = [
        (snapshots > 1000, f"only {snapshots} snapshots audited"),
        (worst_sum < 1e-8, f"worst snapshot sum deviation {worst_sum:.3e}"),
        (worst_entry >= -1e-12, f"worst negative snapshot entry {worst_entry:.3e}"),
    ]
    finish(
        5,
        f"conservation across {snapshots} snapshots in {len(ALL_TRAJECTORIES)} trajectories",
        start,
        None,
        checks,
    )
