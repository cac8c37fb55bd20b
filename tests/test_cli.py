import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evosum
from evosum import (
    EliminationEvent,
    EvolutionMatrix,
    PopulationVector,
    SimulationConfig,
    TerminationReason,
    elimination_time_scan,
    evolve,
    load_scenario,
    make_population,
    random_competitive,
    random_stochastic,
    scenario_from_dict,
    stationary_by_iteration,
)
from evosum.cli import _atomic_files, _write_trajectory, main
from evosum.errors import NumericalError, ScenarioParseError
from test_dynamics import Trajectory, collect, serial_evolve, serial_scan, windows_of
from test_golden import FIXED_POINT_TAIL

# A JSON integer with 401 digits: valid JSON, far beyond the largest float.
HUGE = 10**400
# st.text()'s default alphabet less the characters a species name may not hold.
NAME_CHARACTERS = st.characters(codec="utf-8", exclude_characters=',"\r\n')
# Names of the trajectory CSV's own columns, which a species may not take.
CSV_COLUMNS = {"step", "tau", "event"}


@st.composite
def scenario_dicts(draw):
    """Valid scenario objects over all three matrix sources and every optional key."""
    source = draw(st.sampled_from(["entries", "generator", "two_species"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if source == "two_species":
        n = 2
        coupling = st.floats(min_value=-0.5, max_value=0.5)
        spec = {"two_species": {"alpha": draw(coupling), "beta": draw(coupling)}}
    elif source == "entries":
        n = draw(st.integers(min_value=2, max_value=5))
        spec = {"entries": random_competitive(n, 0.3, 0.5, seed).entries.tolist()}
    else:
        n = draw(st.integers(min_value=1, max_value=5))
        spec = {"generator": (random_stochastic(n, 0.3, seed).entries - np.eye(n)).tolist()}
    abundance = st.one_of(st.integers(min_value=1, max_value=100), st.floats(0.01, 100.0))
    data = {"matrix": spec, "initial": draw(st.lists(abundance, min_size=n, max_size=n))}
    optional = {
        "species_names": st.lists(
            st.text(NAME_CHARACTERS, min_size=1, max_size=6).filter(lambda s: s not in CSV_COLUMNS),
            min_size=n,
            max_size=n,
            unique=True,
        ),
        "dt": st.one_of(
            st.sampled_from([0.25, 7, 1.0]),
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ),
        "config": st.fixed_dictionaries(
            {},
            optional={
                "max_steps": st.integers(min_value=1, max_value=10**6),
                "convergence_tol": st.floats(min_value=0.0, max_value=1.0),
                "record_every": st.integers(min_value=1, max_value=1000),
            },
        ),
        "seed": st.integers(),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            data[key] = draw(values)
    return data


def reference_csv(trajectory, names):
    """The trajectory CSV formatted value by value, with no reuse between rows."""
    lines = ["step,tau," + ",".join(names) + ",event"]
    events = {e.row_index: e for e in trajectory.events}
    for k in range(len(trajectory.steps)):
        e = events.get(k)
        event = "" if e is None else f"elim:{names[e.species_id]}"
        values = ",".join(repr(float(x)) for x in trajectory.values[k])
        tau = repr(float(0.0 if e is None else e.fraction))
        lines.append(f"{int(trajectory.steps[k])},{tau},{values},{event}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def hand_trajectory(values, steps=None, eliminations=()):
    """A Trajectory with the given rows and ``(row, fraction, species)`` eliminations.

    Only the CSV's columns matter: the steps, the values and each event's
    row, fraction and species.
    """
    values = np.array(values, dtype=float)
    rows, width = values.shape
    steps = np.arange(rows) if steps is None else np.array(steps)
    return Trajectory(
        steps=steps,
        values=values,
        events=tuple(
            EliminationEvent(int(steps[row]), fraction, species, 0, 0, row)
            for row, fraction, species in eliminations
        ),
        terminated_reason=TerminationReason.MAX_STEPS,
        final_matrix=EvolutionMatrix(np.eye(width)),
    )


class Written(list):
    """A text file stand-in that keeps each string written to it."""

    def write(self, text):
        self.append(text)


def written_csv(run, names) -> Written:
    """The strings ``_write_trajectory`` writes for ``run``, an ``evolve`` generator."""
    strings = Written()
    _write_trajectory(run, names, strings)
    return strings


def cli_csv(trajectory, names):
    """The CLI's CSV of ``trajectory``, which must not depend on how its rows come in windows."""
    rows = len(trajectory.steps)
    csvs = {
        "".join(written_csv(windows_of(trajectory, size), names)).encode("utf-8")
        for size in {1, 2, 3, rows}
    }
    assert len(csvs) == 1
    return csvs.pop()


def write_scenario(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def assert_same_scenario(loaded, expected):
    """Field by field, with arrays compared by their bytes."""
    assert loaded.species_names == expected.species_names
    assert loaded.matrix.entries.tobytes() == expected.matrix.entries.tobytes()
    assert loaded.initial.values.tobytes() == expected.initial.values.tobytes()
    assert loaded.config == expected.config
    assert loaded.seed == expected.seed


@pytest.fixture
def case_a(tmp_path):
    return write_scenario(
        tmp_path / "a.json",
        {
            "species_names": ["finch", "sparrow"],
            "matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}},
            "initial": [0.9, 0.1],
            "config": {"max_steps": 500},
            "seed": 7,
        },
    )


@pytest.fixture
def case_b(tmp_path):
    return write_scenario(
        tmp_path / "b.json",
        {
            "matrix": {"two_species": {"alpha": 0.1, "beta": -0.05}},
            "initial": [0.5, 0.5],
        },
    )


class TestLoadScenario:
    def test_minimal_two_species(self, case_a):
        scenario = load_scenario(case_a)
        assert scenario.species_names == ("finch", "sparrow")
        np.testing.assert_allclose(scenario.matrix.entries, [[0.9, 0.2], [0.1, 0.8]])
        np.testing.assert_allclose(scenario.initial.values, [0.9, 0.1])
        assert scenario.config.max_steps == 500
        assert scenario.seed == 7

    def test_default_names_generated(self, case_b):
        assert load_scenario(case_b).species_names == ("species_1", "species_2")

    def test_explicit_entries_source(self, tmp_path):
        path = write_scenario(
            tmp_path / "m.json",
            {"matrix": {"entries": [[0.9, 0.2], [0.1, 0.8]]}, "initial": [1, 1]},
        )
        scenario = load_scenario(path)
        np.testing.assert_allclose(scenario.initial.values, [0.5, 0.5])

    def test_generator_source(self, tmp_path):
        path = write_scenario(
            tmp_path / "g.json",
            {"matrix": {"generator": [[-0.1, 0.2], [0.1, -0.2]]}, "initial": [1, 1]},
        )
        np.testing.assert_allclose(
            load_scenario(path).matrix.entries, [[0.9, 0.2], [0.1, 0.8]]
        )

    def test_two_sources_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path / "dup.json",
            {
                "matrix": {
                    "entries": [[1.0]],
                    "two_species": {"alpha": 0.1, "beta": 0.2},
                },
                "initial": [1.0],
            },
        )
        with pytest.raises(ScenarioParseError, match="exactly one"):
            load_scenario(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path / "u.json",
            {"matrix": {"entries": [[1.0]]}, "initial": [1.0], "extra": 1},
        )
        with pytest.raises(ScenarioParseError, match="extra"):
            load_scenario(path)

    # A lone surrogate is valid JSON, but no output can encode it as UTF-8.
    @pytest.mark.parametrize(
        "char", [",", '"', "\r", "\n", "\ud800"], ids=["comma", "quote", "cr", "lf", "surrogate"]
    )
    def test_csv_special_character_in_name_rejected(self, tmp_path, capsys, char):
        data = {
            "species_names": ["finch", f"spar{char}row"],
            "matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}},
            "initial": [0.9, 0.1],
        }
        with pytest.raises(ScenarioParseError, match="species name"):
            scenario_from_dict(data)
        path, out = write_scenario(tmp_path / "s.json", data), tmp_path / "o.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
        assert "species name" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_name_rejected(self, tmp_path, capsys):
        data = {
            "species_names": ["a", "a"],
            "matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}},
            "initial": [0.9, 0.1],
        }
        with pytest.raises(ScenarioParseError, match="species name 'a' appears more than once"):
            scenario_from_dict(data)
        path, out = write_scenario(tmp_path / "s.json", data), tmp_path / "o.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
        assert "species name 'a' appears more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, message",
        [
            ("", "species name is empty"),
            ("step", "species name 'step' is the name of a trajectory CSV column"),
            ("tau", "species name 'tau' is the name of a trajectory CSV column"),
            ("event", "species name 'event' is the name of a trajectory CSV column"),
        ],
    )
    def test_name_that_makes_the_header_ambiguous_rejected(self, tmp_path, capsys, name, message):
        data = {
            "species_names": ["finch", name],
            "matrix": {"two_species": {"alpha": 0.1, "beta": -0.05}},
            "initial": [0.5, 0.5],
        }
        with pytest.raises(ScenarioParseError, match=message):
            scenario_from_dict(data)
        path, out = write_scenario(tmp_path / "s.json", data), tmp_path / "o.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_column_names_in_other_case_or_inside_a_name_accepted(self, tmp_path):
        data = {
            "species_names": ["Step", "events"],
            "matrix": {"two_species": {"alpha": 0.1, "beta": -0.05}},
            "initial": [0.5, 0.5],
        }
        path, out = write_scenario(tmp_path / "s.json", data), tmp_path / "o.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "step,tau,Step,events,event"

    def test_round_trip_is_structurally_identical(self, case_a, tmp_path):
        data = json.loads(Path(case_a).read_text(encoding="utf-8"))
        copy_path = write_scenario(tmp_path / "copy.json", data)
        assert_same_scenario(load_scenario(copy_path), scenario_from_dict(data))

    @given(scenario_dicts())
    @settings(max_examples=80, deadline=None)
    def test_save_load_round_trip_is_exact(self, tmp_path_factory, data):
        # Every valid dt the strategy draws is shown to load.
        path = write_scenario(tmp_path_factory.mktemp("round-trip") / "s.json", data)
        assert_same_scenario(load_scenario(path), scenario_from_dict(data))

    def test_interrupted_write_keeps_every_target(self, tmp_path):
        # The failure comes after both temp files hold data, on disk, so the
        # cleanup has files to remove.
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        first.write_bytes(b"first\n")
        second.write_bytes(b"second\n")
        with pytest.raises(RuntimeError, match="block failed"):
            with _atomic_files(str(first), str(second)) as files:
                for fh in files:
                    fh.write("replaced\n")
                    fh.flush()
                temps = sorted(tmp_path.glob(".evosum-*.tmp"))
                assert [p.read_bytes() for p in temps] == [b"replaced\n"] * 2
                raise RuntimeError("block failed")
        assert all(fh.closed for fh in files)
        assert (first.read_bytes(), second.read_bytes()) == (b"first\n", b"second\n")
        assert list(tmp_path.glob(".evosum-*.tmp")) == []


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, code, output",
        [
            (["classify", "0.1", "-0.05", "0.5"], 0, "MonotoneExtinction, species 2\n"),
            (["classify", "0", "0", "nan"], 3, "error: a must be finite, got nan\n"),
            (["simulate", "--out", "o.csv"], 2, "required: --scenario"),
        ],
        ids=["ok", "validation", "usage"],
    )
    def test_module_entry_point_sets_process_exit_code(self, tmp_path, argv, code, output):
        # Only `python -m evosum.cli` runs `sys.exit(main())`, which turns the
        # returned code into the process exit status.
        package_root = str(Path(evosum.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "evosum.cli", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == code
        assert output in (result.stdout if code == 0 else result.stderr)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("route", ["sweep", "scenario"])
    def test_overflowing_initial_total_is_validation_error(self, tmp_path, capsys, route):
        # The suite turns warnings into errors, as `python -W error` does: an
        # overflow warning would surface here as a RuntimeWarning, not exit 3.
        out = tmp_path / "o.csv"
        if route == "sweep":
            argv = ["sweep", "--alpha-per-scale", "0.02", "--beta-per-scale", "-0.01",
                    "--scales", "1", "--initial", "1e308", "1e308", "--out", str(out)]
        else:
            path = write_scenario(
                tmp_path / "big.json",
                {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [1e308, 1e308]},
            )
            argv = ["simulate", "--scenario", path, "--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: total abundance is not finite (inf)\n"
        assert not out.exists()

    def test_overflowing_column_sum_is_validation_error(self, tmp_path, capsys):
        # Finite entries whose column sum overflows: under the suite's
        # warnings-as-errors, as under `python -W error`, the check must not warn.
        path = write_scenario(
            tmp_path / "big.json",
            {"matrix": {"entries": [[1.7e308, 0.0], [1.7e308, 1.0]]}, "initial": [1, 1]},
        )
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: column 0 of evolution matrix sums to inf, expected 1.0 within 1e-12\n"
        )
        assert not out.exists()

    def test_bad_column_sum_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "bad.json",
            {"matrix": {"entries": [[0.9, 0.1], [0.08, 0.9]]}, "initial": [1, 1]},
        )
        code = main(["simulate", "--scenario", path, "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "column 0" in capsys.readouterr().err

    def test_negative_initial_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "neg.json",
            {"matrix": {"entries": [[1.0, 0.0], [0.0, 1.0]]}, "initial": [-1, 2]},
        )
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o.csv")]) == 3
        assert "negative" in capsys.readouterr().err

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"matrix": ', encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"max_steps": "abc"},
            {"max_steps": [5]},
            {"max_steps": 2.7},
            {"max_steps": True},
            {"record_every": float("nan")},
            {"convergence_tol": float("nan")},
            {"convergence_tol": float("inf")},
            {"convergence_tol": -1e-3},
            {"convergence_tol": "1e-9"},
        ],
        ids=[
            "max_steps-string",
            "max_steps-list",
            "max_steps-float",
            "max_steps-bool",
            "record_every-nan",
            "convergence_tol-nan",
            "convergence_tol-inf",
            "convergence_tol-negative",
            "convergence_tol-string",
        ],
    )
    def test_mistyped_config_is_parse_error(self, tmp_path, capsys, config):
        path = write_scenario(
            tmp_path / "cfg.json",
            {
                "matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}},
                "initial": [1, 1],
                "config": config,
            },
        )
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o.csv")]) == 2
        assert "config field" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["max_steps", "record_every"])
    def test_config_count_below_one_is_validation_error(self, tmp_path, capsys, key):
        # An integer of the right type but below 1 passes the parse and fails
        # `SimulationConfig`'s check, so it exits 3, not 2.
        path = write_scenario(
            tmp_path / "cfg.json",
            {
                "matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}},
                "initial": [1, 1],
                "config": {key: 0},
            },
        )
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr() == ("", f"error: {key} must be at least 1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "scenario",
        [
            {"matrix": {"entries": [[True, 0.0], [0.0, 1.0]]}, "initial": [1, 1]},
            {"matrix": {"generator": [[0.0, 0.0], [0.0, False]]}, "initial": [1, 1]},
            {"matrix": {"two_species": {"alpha": True, "beta": 0.2}}, "initial": [1, 1]},
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [True, 1]},
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [1, 1], "dt": True},
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [1, 1], "seed": True},
        ],
        ids=["entries", "generator", "two_species", "initial", "dt", "seed"],
    )
    def test_boolean_number_is_parse_error(self, tmp_path, capsys, scenario):
        path = write_scenario(tmp_path / "bool.json", scenario)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "dt", [0, -1, float("nan"), float("inf")], ids=["zero", "negative", "NaN", "Infinity"]
    )
    def test_dt_outside_positive_finite_is_parse_error(self, tmp_path, capsys, dt):
        # true and a 401-digit integer are covered by the two neighbouring tests.
        path = write_scenario(
            tmp_path / "dt.json",
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [1, 1], "dt": dt},
        )
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o.csv")]) == 2
        assert "field 'dt' must be a positive finite number" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dt.json"]

    @pytest.mark.parametrize(
        "scenario",
        [
            {"matrix": {"entries": [[HUGE, 0.0], [0.0, 1.0]]}, "initial": [1, 1]},
            {"matrix": {"generator": [[0.0, 0.0], [0.0, -HUGE]]}, "initial": [1, 1]},
            {"matrix": {"two_species": {"alpha": 0.1, "beta": HUGE}}, "initial": [1, 1]},
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [HUGE, 1]},
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [1, 1], "dt": HUGE},
            {
                "matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}},
                "initial": [1, 1],
                "config": {"convergence_tol": HUGE},
            },
        ],
        ids=["entries", "generator", "two_species", "initial", "dt", "convergence_tol"],
    )
    def test_integer_beyond_float_range_is_parse_error(self, tmp_path, capsys, scenario):
        path = write_scenario(tmp_path / "huge.json", scenario)
        out = tmp_path / "o.json"
        assert main(["spectrum", "--scenario", path, "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_only_fields_take_big_integers(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "big.json",
            {
                "matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}},
                "initial": [1, 1],
                # max_steps is bounded by the int64 step counter.
                "config": {"max_steps": 2**63 - 2, "record_every": HUGE},
                "seed": HUGE,
            },
        )
        out = tmp_path / "o.json"
        assert main(["spectrum", "--scenario", path, "--out", str(out)]) == 0
        assert load_scenario(path).seed == HUGE

    @pytest.mark.parametrize("command", ["simulate", "spectrum", "backward"])
    @pytest.mark.parametrize(
        "scenario",
        [
            {"matrix": {"entries": [[float("nan"), 0.1], [0.1, 0.9]]}, "initial": [1, 1]},
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.2}}, "initial": [float("inf"), 1]},
        ],
        ids=["nan-matrix", "inf-initial"],
    )
    def test_non_finite_input_is_validation_error(self, tmp_path, capsys, command, scenario):
        path = write_scenario(tmp_path / "nonfinite.json", scenario)
        argv = [command, "--scenario", path]
        if command != "backward":
            argv += ["--out", str(tmp_path / "o.out")]
        assert main(argv) == 3
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "o.out").exists()

    def test_singular_matrix_is_numerical_error(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "flat.json",
            {"matrix": {"entries": [[0.5, 0.5], [0.5, 0.5]]}, "initial": [1, 1]},
        )
        assert main(["backward", "--scenario", path]) == 4
        assert "singular" in capsys.readouterr().err

    def test_unwritable_output_is_io_error_with_no_partial_file(self, case_a, capsys):
        assert main(["simulate", "--scenario", case_a, "--out", "/nonexistent-dir/x.csv"]) == 5
        capsys.readouterr()
        assert not os.path.exists("/nonexistent-dir/x.csv")

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        path, out = tmp_path / "latin1.json", tmp_path / "o.csv"
        path.write_bytes(b'{"initial": [1], "species_names": ["caf\xe9"]}')
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert "not UTF-8: invalid byte at offset 39" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_json_is_parse_error(self, tmp_path, capsys):
        path, out = tmp_path / "deep.json", tmp_path / "o.csv"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert "nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_summary_write_leaves_no_csv(self, case_a, tmp_path, capsys):
        out = tmp_path / "t.csv"
        summary = tmp_path / "nodir" / "s.json"
        argv = ["simulate", "--scenario", case_a, "--out", str(out), "--summary", str(summary)]
        assert main(argv) == 5
        assert not out.exists()
        out.write_bytes(b"kept\n")
        assert main(argv) == 5
        assert out.read_bytes() == b"kept\n"
        assert list(tmp_path.glob(".evosum-*.tmp")) == []
        assert "No such file or directory" in capsys.readouterr().err

    def test_failure_mid_run_leaves_both_outputs(self, tmp_path, capsys, monkeypatch):
        # The CSV's temp file is open and filling while the engine runs. With
        # 256-row windows, this run's 16th elimination comes after row 722.
        matrix = random_competitive(20, 0.05, 0.5, 1)
        data = {"matrix": {"entries": matrix.entries.tolist()}, "initial": [1] * 20}
        path = write_scenario(tmp_path / "cascade.json", data)
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        out.write_bytes(b"kept csv\n")
        summary.write_bytes(b"kept summary\n")
        monkeypatch.setattr(evosum.dynamics, "_WINDOW_ENTRIES", 20 * 256)
        real, calls, written = evosum.dynamics.crossing_fraction, [], []

        def failing(before, after):
            calls.append(None)
            if len(calls) == 16:
                written.extend(p.stat().st_size for p in tmp_path.glob(".evosum-*.tmp"))
                raise NumericalError("injected failure")
            return real(before, after)

        monkeypatch.setattr(evosum.dynamics, "crossing_fraction", failing)
        argv = ["simulate", "--scenario", path, "--out", str(out), "--summary", str(summary)]
        assert main(argv) == 4
        assert capsys.readouterr() == ("", "error: injected failure\n")
        # Both temp files exist while the engine runs: the CSV's holds rows,
        # the summary's is still empty.
        summary_size, csv_size = sorted(written)
        assert summary_size == 0 < csv_size
        assert (out.read_bytes(), summary.read_bytes()) == (b"kept csv\n", b"kept summary\n")
        assert list(tmp_path.glob(".evosum-*.tmp")) == []

    @pytest.mark.parametrize("directory", ["out", "summary"])
    def test_output_naming_a_directory_leaves_the_other_output(
        self, case_a, tmp_path, capsys, directory
    ):
        paths = {"out": tmp_path / "t.csv", "summary": tmp_path / "s.json"}
        for name, path in paths.items():
            if name == directory:
                path.mkdir()
            else:
                path.write_bytes(b"kept\n")
        argv = ["simulate", "--scenario", case_a]
        argv += ["--out", str(paths["out"]), "--summary", str(paths["summary"])]
        assert main(argv) == 5
        for name, path in paths.items():
            if name == directory:
                assert list(path.iterdir()) == []
            else:
                assert path.read_bytes() == b"kept\n"
        assert list(tmp_path.glob("**/.evosum-*.tmp")) == []
        err = capsys.readouterr().err
        assert err == f"error: output is a directory: {paths[directory]}\n"

    @pytest.mark.parametrize("summary", ["t.csv", "sub/../t.csv", "link.json"])
    def test_out_and_summary_naming_one_file_is_usage_error(
        self, case_a, tmp_path, capsys, monkeypatch, summary
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to("t.csv")
        (tmp_path / "t.csv").write_bytes(b"kept\n")
        argv = ["simulate", "--scenario", case_a, "--out", "t.csv", "--summary", summary]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --out and --summary name the same file: t.csv\n")
        assert (tmp_path / "t.csv").read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "link.json", "sub", "t.csv"]

    def test_missing_scenario_file_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"), "--out", "x"]) == 5
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert main(["sweep", "--alpha-per-scale", "1.0"]) == 2
        capsys.readouterr()

    def test_simulate_has_no_seed_flag(self, case_a, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scenario", case_a, "--out", str(out), "--seed", "3"]) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    previous = os.umask(request.param)
    yield request.param
    os.umask(previous)


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
class TestOutputMode:
    """Outputs get the mode ``open()`` gives a new file, ``0o666 & ~umask``, not mkstemp's 0600."""

    def test_new_targets(self, case_a, tmp_path, umask):
        out, spectrum = tmp_path / "traj.csv", tmp_path / "spec.json"
        assert main(["simulate", "--scenario", case_a, "--out", str(out)]) == 0
        assert main(["spectrum", "--scenario", case_a, "--out", str(spectrum)]) == 0
        for path in (out, tmp_path / "traj.csv.summary.json", spectrum):
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path.name

    def test_replaced_targets(self, tmp_path, umask):
        out = tmp_path / "sweep.csv"
        out.write_text("old\n")
        os.chmod(out, 0o644)
        argv = ["sweep", "--alpha-per-scale", "0.1", "--beta-per-scale", "-0.05"]
        assert main([*argv, "--scales", "1", "--out", str(out)]) == 0
        assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask
        assert out.read_text().startswith("scale,steps,status\n")
        assert list(tmp_path.glob(".evosum-*.tmp")) == []


class TestSimulate:
    def test_fold_past_the_input_tolerance_writes_both_outputs(self, tmp_path, capsys):
        # Column 0 loads 9.9987e-13 off; the run's folds round it just past
        # 1e-12. The reduced matrix is derived, so the run is not refused.
        rng = np.random.default_rng(4)
        family = rng.uniform(-0.5, 0.5, size=(4, 5, 5))
        family[:, np.arange(5), np.arange(5)] += 1.0 - family.sum(axis=1)
        for _ in range(2):
            i, j = rng.integers(0, 5, size=2)
            family[2, i, j] += 5e-13
        path = write_scenario(
            tmp_path / "edge.json",
            {"matrix": {"entries": family[2].tolist()}, "initial": [1] * 5, "config": {"max_steps": 5}},
        )
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().startswith("step,tau,species_1,")
        summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
        assert summary["events"]

    @pytest.mark.parametrize("max_steps", [10**7, 10**7 + 5])
    def test_run_past_a_fixed_point_records_to_the_cap(self, tmp_path, max_steps):
        # Species 1 hands its mass to 2, and 2 to 3, which keeps it: from
        # step 2 on every step reproduces its input, so the 10**7 steps are
        # never computed.
        path = write_scenario(
            tmp_path / "chain.json",
            {
                "matrix": {"entries": [[0, 0, 0], [1, 0, 0], [0, 1, 1]]},
                "initial": [1, 0, 0],
                "config": {"max_steps": max_steps, "convergence_tol": 0, "record_every": 10**6},
            },
        )
        out = tmp_path / "chain.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        settled = [f"{k * 10**6},0.0,0.0,0.0,1.0," for k in range(1, 11)]
        if max_steps % 10**6:
            settled.append(f"{max_steps},0.0,0.0,0.0,1.0,")
        assert out.read_text().splitlines() == [
            "step,tau,species_1,species_2,species_3,event",
            "0,0.0,1.0,0.0,0.0,",
            *settled,
        ]
        summary = json.loads((tmp_path / "chain.csv.summary.json").read_text())
        assert summary["exit_reason"] == "MaxSteps"
        assert summary["events"] == []
        assert summary["terminal_populations"] == [0.0, 0.0, 1.0]

    def test_coexistence_run(self, case_a, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", case_a, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,tau,finch,sparrow,event"
        last = lines[-1].split(",")
        assert abs(float(last[2]) - 2 / 3) < 1e-6
        assert abs(float(last[3]) - 1 / 3) < 1e-6
        summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
        assert summary["exit_reason"] == "Converged"
        assert summary["events"] == []
        assert summary["two_species"]["regime"] == "Coexistence"

    @pytest.mark.parametrize(
        "beta, rows, fraction",
        [
            (0.2, ["0,0.0,-0.0,1.0,", "1,0.0,0.2,0.8,"], None),
            # Species 1 crosses during step 0 from -0.0, at the fraction -0.0.
            (-0.05, ["0,0.0,-0.0,1.0,", "0,-0.0,0.0,1.0,elim:species_1"], "-0.0"),
        ],
        ids=["no-event", "event-at-negative-zero"],
    )
    def test_negative_zero_start_keeps_its_sign(self, tmp_path, beta, rows, fraction):
        # A dust floor built on np.maximum would write these -0.0 cells as 0.0.
        path = write_scenario(
            tmp_path / "z.json",
            {
                "matrix": {"two_species": {"alpha": 0.1, "beta": beta}},
                "initial": [-0.0, 1.0],
                "config": {"max_steps": 3},
            },
        )
        out = tmp_path / "z.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:3] == rows
        events = json.loads((tmp_path / "z.csv.summary.json").read_text())["events"]
        if fraction is None:
            assert events == []
        else:
            assert repr(events[0]["fraction"]) == fraction

    def test_extinction_run_records_one_event(self, case_b, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", case_b, "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
        assert len(summary["events"]) == 1
        assert summary["events"][0]["species"] == "species_1"
        assert summary["exit_reason"] == "AllButOneExtinct"
        event_lines = [
            line for line in out.read_text().splitlines() if line.endswith("elim:species_1")
        ]
        assert len(event_lines) == 1

    def test_every_csv_row_is_conserved(self, case_b, tmp_path):
        out = tmp_path / "traj.csv"
        main(["simulate", "--scenario", case_b, "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            fields = line.split(",")
            assert abs(float(fields[2]) + float(fields[3]) - 1.0) < 1e-8

    def test_byte_identical_reruns(self, case_a, tmp_path):
        first, second = tmp_path / "t1.csv", tmp_path / "t2.csv"
        main(["simulate", "--scenario", case_a, "--out", str(first)])
        main(["simulate", "--scenario", case_a, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
        assert (
            (tmp_path / "t1.csv.summary.json").read_bytes()
            == (tmp_path / "t2.csv.summary.json").read_bytes()
        )

    def test_csv_matches_per_value_reference(self, tmp_path):
        matrix = random_competitive(4, 0.12, 0.5, seed=6)
        path = write_scenario(
            tmp_path / "cascade.json",
            {
                "matrix": {"entries": matrix.entries.tolist()},
                "initial": [1, 2, 3, 4],
                "config": {"max_steps": 3000, "record_every": 7},
            },
        )
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0

        scenario = load_scenario(path)
        trajectory = collect(evolve(scenario.matrix, scenario.initial, scenario.config))
        assert len(trajectory.events) >= 1
        assert out.read_bytes() == reference_csv(trajectory, scenario.species_names)

    @pytest.mark.parametrize(
        "matrix, config, events, reason",
        [
            (random_competitive(40, 0.5, 0.5, 3), {"max_steps": 3000, "record_every": 7}, 34, "Converged"),
            (random_stochastic(10, 0.3, 4), {"max_steps": 10_000}, 0, "Converged"),
            # the benchmark's cascade shape: 174 folds, from width 200 down to 26
            (random_competitive(200, 0.5, 0.5, 1), {"max_steps": 600, "record_every": 100}, 174, "MaxSteps"),
        ],
        ids=["cascade", "converging", "cascade200"],
    )
    def test_outputs_match_serial_engine(self, tmp_path, monkeypatch, matrix, config, events, reason):
        initial = list(range(1, matrix.n + 1))
        data = {"matrix": {"entries": matrix.entries.tolist()}, "initial": initial, "config": config}
        argv = ["simulate", "--scenario", write_scenario(tmp_path / "s.json", data), "--out"]
        assert main([*argv, str(tmp_path / "block.csv")]) == 0
        # The serial rows come in windows of 97, so the CLI reuses a row across windows.
        monkeypatch.setattr("evosum.cli.evolve", lambda *run: windows_of(serial_evolve(*run), 97))
        assert main([*argv, str(tmp_path / "serial.csv")]) == 0
        for suffix in (".csv", ".csv.summary.json"):
            assert (tmp_path / f"block{suffix}").read_bytes() == (tmp_path / f"serial{suffix}").read_bytes()
        summary = json.loads((tmp_path / "block.csv.summary.json").read_text())
        assert len(summary["events"]) == events
        assert summary["exit_reason"] == reason

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("max_steps", [2**63 - 2, 2**63 - 1, 10**20])
    def test_step_cap_at_most_the_int64_bound(self, tmp_path, capsys, where, max_steps):
        # A fixed point from the first step: the run is O(rows), at any cap.
        # record_every has no bound: rows are recorded only up to the cap.
        config = {"convergence_tol": 0, "record_every": 10**20}
        if where == "config":
            config["max_steps"] = max_steps
        path = write_scenario(
            tmp_path / "s.json",
            {"matrix": {"two_species": {"alpha": 0.5, "beta": 0.5}}, "initial": [1, 1], "config": config},
        )
        out = tmp_path / "t.csv"
        argv = ["simulate", "--scenario", path, "--out", str(out)]
        if where == "flag":
            argv += ["--max-steps", str(max_steps)]
        if max_steps <= 2**63 - 2:
            assert main(argv) == 0
            assert out.read_text().splitlines()[1:] == ["0,0.0,0.5,0.5,", f"{max_steps},0.0,0.5,0.5,"]
        else:
            assert main(argv) == 3
            assert capsys.readouterr() == ("", "error: max_steps must be at most 9223372036854775806\n")
            assert list(tmp_path.iterdir()) == [tmp_path / "s.json"]

    def test_max_steps_override(self, case_a, tmp_path):
        out = tmp_path / "short.csv"
        main(["simulate", "--scenario", case_a, "--out", str(out), "--max-steps", "3"])
        lines = out.read_text().strip().splitlines()
        assert lines[-1].split(",")[0] == "3"


class TestTrajectoryLines:
    """The CLI's CSV rows against `reference_csv`, on hand-built trajectories."""

    NAMES = ("a", "b")

    def test_negative_zero_after_zero_is_formatted(self):
        trajectory = hand_trajectory([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        csv = cli_csv(trajectory, self.NAMES)
        assert csv == reference_csv(trajectory, self.NAMES)
        assert csv.splitlines()[1:] == [
            b"0,0.0,0.0,1.0,", b"1,0.0,-0.0,1.0,", b"2,0.0,-0.0,1.0,", b"3,0.0,0.0,1.0,"
        ]

    def test_elimination_row_equal_to_the_last_keeps_its_own_cells(self):
        trajectory = hand_trajectory(
            [[0.25, 0.75], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
            steps=[0, 1, 1, 2],
            eliminations=[(2, 0.5, 0)],
        )
        csv = cli_csv(trajectory, self.NAMES)
        assert csv == reference_csv(trajectory, self.NAMES)
        assert csv.splitlines()[2:] == [
            b"1,0.0,0.0,1.0,", b"1,0.5,0.0,1.0,elim:a", b"2,0.0,0.0,1.0,"
        ]

    def test_width_one(self):
        trajectory = hand_trajectory([[1.0], [1.0], [1.0]])
        csv = cli_csv(trajectory, ("solo",))
        assert csv == reference_csv(trajectory, ("solo",))
        assert csv.splitlines()[1:] == [b"0,0.0,1.0,", b"1,0.0,1.0,", b"2,0.0,1.0,"]

    def test_single_row(self):
        trajectory = hand_trajectory([[0.1 + 0.2, 0.7]])
        csv = cli_csv(trajectory, self.NAMES)
        assert csv == reference_csv(trajectory, self.NAMES)
        assert csv == b"step,tau,a,b,event\n0,0.0,0.30000000000000004,0.7,\n"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_on_repeating_rows(self, data):
        width = data.draw(st.integers(min_value=1, max_value=4))
        cell = st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, 0.1 + 0.2])
        row = st.lists(cell, min_size=width, max_size=width)
        pool = data.draw(st.lists(row, min_size=1, max_size=3))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
        # Events on nearly every row, or on a few rows among many.
        sparsity = data.draw(st.integers(1, 4 * width))
        events = st.lists(st.integers(-sparsity, width - 1), min_size=len(picks), max_size=len(picks))
        species = data.draw(events)
        trajectory = hand_trajectory(
            [pool[i] for i in picks],
            eliminations=[(row, 0.5, s) for row, s in enumerate(species) if s >= 0],
        )
        names = tuple(f"s{i}" for i in range(width))
        assert cli_csv(trajectory, names) == reference_csv(trajectory, names)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_in_small_chunks_and_blocks(self, data):
        # Each window is the CLI's one block: windows of any small size, not
        # only the 1, 2, 3 and all rows of `cli_csv`.
        width = data.draw(st.integers(min_value=1, max_value=4))
        row = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=width, max_size=width)
        pool = data.draw(st.lists(row, min_size=1, max_size=3))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
        rows = len(picks)
        events = st.lists(st.integers(-4 * width, width - 1), min_size=rows, max_size=rows)
        species = data.draw(events)
        trajectory = hand_trajectory(
            [pool[i] for i in picks],
            eliminations=[(row, 0.5, s) for row, s in enumerate(species) if s >= 0],
        )
        names = tuple(f"s{i}" for i in range(width))
        size = data.draw(st.integers(1, 12))
        lines = written_csv(windows_of(trajectory, size), names)
        assert "".join(lines).encode("utf-8") == reference_csv(trajectory, names)
        assert all(line.endswith("\n") for line in lines)

    def test_formats_only_rows_that_differ_from_the_last(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path / "tail.json", FIXED_POINT_TAIL)
        scenario = load_scenario(path)
        trajectory = collect(evolve(scenario.matrix, scenario.initial, scenario.config))
        rows = [row.tobytes() for row in trajectory.values]
        distinct = sum(k == 0 or rows[k] != rows[k - 1] for k in range(len(rows)))
        assert distinct < len(rows) / 2
        calls = []

        def counting_repr(x):
            calls.append(type(x))
            return repr(x)

        # Population cells go through the module's `repr`; `step` and `tau` do not.
        monkeypatch.setattr("evosum.cli.repr", counting_repr, raising=False)
        # Windows of 256 rows: row 256, in the fixed-point tail, reuses the cells of row 255.
        monkeypatch.setattr("evosum.dynamics._WINDOW_ENTRIES", 6 * 256)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        assert calls == [float] * (distinct * trajectory.values.shape[1])
        assert out.read_bytes() == reference_csv(trajectory, scenario.species_names)

    def test_event_row_between_equal_rows_keeps_its_own_line(self):
        trajectory = hand_trajectory(
            [[0.0, 1.0]] * 5, steps=[0, 1, 2, 2, 3], eliminations=[(2, 0.25, 0)]
        )
        csv = cli_csv(trajectory, self.NAMES)
        assert csv == reference_csv(trajectory, self.NAMES)
        assert csv.splitlines()[1:] == [
            b"0,0.0,0.0,1.0,",
            b"1,0.0,0.0,1.0,",
            b"2,0.25,0.0,1.0,elim:a",
            b"2,0.0,0.0,1.0,",
            b"3,0.0,0.0,1.0,",
        ]

    def test_dense_run_yields_a_string_per_span(self):
        # The benchmark's simulate-dense run: 20,001 rows of 50 species, most
        # of them past an exact fixed point. A run of rows with the same
        # cells is one string, so the strings are at most one per distinct
        # row, event and window, plus the header; not one per line.
        n, steps = 50, 20_000
        config = SimulationConfig(max_steps=steps, convergence_tol=0.0)
        run = evolve(random_competitive(n, 0.05, 0.1, 1), make_population([1.0] * n), config)
        counts = {"windows": 0, "distinct": 0, "events": 0}

        def counted(run):
            last = None
            for window in run:
                rows = [row.tobytes() for row in window[1]]
                counts["windows"] += 1
                counts["events"] += len(window[2])
                counts["distinct"] += sum(row != before for before, row in zip([last] + rows, rows))
                last = rows[-1]
                yield window

        names = tuple(f"s{i}" for i in range(n))
        strings = written_csv(counted(run), names)
        assert "".join(strings).count("\n") == steps + 2
        assert counts["events"] == 0 and counts["distinct"] < steps / 4
        assert len(strings) <= counts["distinct"] + counts["events"] + counts["windows"] + 1
        assert all(string.endswith("\n") for string in strings)


class TestSpectrum:
    def test_two_species_spectrum(self, case_a, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--scenario", case_a, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["eigenvalues"] == [[1.0, 0.0], [0.7, 0.0]]
        np.testing.assert_allclose(report["stationary"], [2 / 3, 1 / 3], atol=1e-12)
        assert report["lambda2_modulus"] == 0.7
        assert report["biorthogonality"]["passed"]

    def test_identity_degeneracy_flagged(self, tmp_path):
        path = write_scenario(
            tmp_path / "id.json",
            {"matrix": {"entries": [[1.0, 0.0], [0.0, 1.0]]}, "initial": [1, 1]},
        )
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--scenario", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["leading_degenerate"]
        assert report["stationary"] is None
        assert "error" in report["biorthogonality"]

    def test_identity_names_first_coinciding_pair(self, tmp_path):
        path = write_scenario(
            tmp_path / "id3.json",
            {"matrix": {"entries": np.eye(3).tolist()}, "initial": [1, 1, 1]},
        )
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--scenario", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["biorthogonality"] == {"error": "eigenvalues 0 and 1 coincide within 1e-09"}
        assert report["defective"] is False

    def test_random_stochastic_matches_iteration_oracle(self, tmp_path):
        matrix = random_stochastic(4, 0.2, seed=29)
        path = write_scenario(
            tmp_path / "r.json",
            {"matrix": {"entries": matrix.entries.tolist()}, "initial": [1, 1, 1, 1]},
        )
        out = tmp_path / "spec.json"
        main(["spectrum", "--scenario", path, "--out", str(out)])
        report = json.loads(out.read_text())
        oracle = stationary_by_iteration(matrix, tol=1e-12).values
        np.testing.assert_allclose(report["stationary"], oracle, atol=1e-8)


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["classify", "0.1", "0.2", "0.5"], "Coexistence, Both"),
            (["classify", "--", "-0.05", "-0.05", "0.6"], "UnstableWinnerTakesAll, species 1"),
            (["classify", "--", "-0.05", "-0.05", "0.4"], "UnstableWinnerTakesAll, species 2"),
            (["classify", "0.1", "-0.05", "0.5"], "MonotoneExtinction, species 2"),
            (["classify", "0", "0", "0.5"], "Degenerate"),
        ],
    )
    def test_output(self, capsys, argv, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "nan", "0.1", "0.5"], "alpha must be finite, got nan"),
            (["classify", "--", "0.1", "inf", "0.5"], "beta must be finite, got inf"),
            (["classify", "--", "-inf", "-0.1", "0.5"], "alpha must be finite, got -inf"),
            (["classify", "0.1", "0.2", "nan"], "a must be finite, got nan"),
            (["classify", "0", "0", "nan"], "a must be finite, got nan"),
            (["classify", "0.1", "-inf", "0.6"], "beta must be finite, got -inf"),
            (["classify", "-nan", "0.1", "0.6"], "alpha must be finite, got nan"),
        ],
    )
    def test_non_finite_argument_is_validation_error(self, capsys, argv, message):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "argv, separated",
        [
            (["0.1", "-1e-1", "0.6"], ["0.1", "-0.1", "0.6"]),
            (["-5e-2", "-5E-02", "0.6"], ["-0.05", "-0.05", "0.6"]),
            (["-1.5e-05", "2e-05", "0.4"], ["-1.5e-05", "2e-05", "0.4"]),
            (["0.1", "-1_000e-4", "0.6"], ["0.1", "-0.1", "0.6"]),
            (["-0.0_5", "-5_0E-0_3", "0.6"], ["-0.05", "-0.05", "0.6"]),
        ],
    )
    def test_negative_numbers_in_exponent_form_need_no_separator(self, capsys, argv, separated):
        assert main(["classify", "--", *separated]) == 0
        expected = capsys.readouterr().out
        assert main(["classify", *argv]) == 0
        assert capsys.readouterr().out == expected

    def test_dash_word_is_still_an_option(self, capsys):
        # "-x" is read as an unknown option, so the third value is missing.
        assert main(["classify", "0.1", "-x", "0.6"]) == 2
        assert "the following arguments are required: a" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, beta", [("0.1", "0.2"), ("0", "0")])
    def test_share_outside_unit_interval_is_validation_error(self, capsys, alpha, beta):
        assert main(["classify", alpha, beta, "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "initial share a must lie in [0, 1], got 5.0" in captured.err


class TestBackwardCommand:
    def test_stationary_start_runs_to_budget(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "s.json",
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.1}}, "initial": [0.5, 0.5]},
        )
        assert main(["backward", "--scenario", path, "--max-steps", "25"]) == 0
        assert capsys.readouterr().out.strip() == "horizon=25 offender=none"

    def test_known_horizon(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "h.json",
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.1}}, "initial": [0.6, 0.4]},
        )
        assert main(["backward", "--scenario", path, "--max-steps", "100"]) == 0
        assert capsys.readouterr().out.strip() == "horizon=7 offender=species_1"

    @pytest.mark.parametrize("max_steps", ["0", "-5"])
    def test_step_budget_below_one_is_validation_error(self, tmp_path, capsys, max_steps):
        path = write_scenario(
            tmp_path / "s.json",
            {"matrix": {"two_species": {"alpha": 0.1, "beta": 0.1}}, "initial": [0.6, 0.4]},
        )
        assert main(["backward", "--scenario", path, "--max-steps", max_steps]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_steps must be at least 1" in captured.err


CANCELLED_COLUMN = "column 0 of evolution matrix sums to 0.0, expected 1.0 within 1e-12"


class TestSweepCommand:
    def test_inverse_scaling_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--alpha-per-scale", "1.0",
                "--beta-per-scale", "-0.5",
                "--scales", "0.01", "0.02", "0.04",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scale,steps,status"
        steps = [int(line.split(",")[1]) for line in lines[1:]]
        assert steps == [80, 40, 20]
        for slow, fast in zip(steps, steps[1:]):
            assert 1.6 <= slow / fast <= 2.4

    def test_negative_exponent_value_needs_no_equals_sign(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        scales = ["--scales", "0.01", "0.02", "--initial", "0.5", "0.5"]
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale", "-5e-1", *scales]
        assert main([*argv, "--out", str(spaced)]) == 0
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale=-0.5", *scales]
        assert main([*argv, "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_coexistence_family_marks_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--alpha-per-scale", "1.0",
                "--beta-per-scale", "1.0",
                "--scales", "0.01", "0.02",
                "--max-steps", "2000",
                "--out", str(out),
            ]
        )
        lines = out.read_text().strip().splitlines()[1:]
        assert all(line.endswith(",,no-elimination") for line in lines)

    def test_population_size_mismatch_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale", "-0.5",
                "--scales", "0.01", "--initial", "0.2", "0.3", "0.5", "--out", str(out)]
        assert main(argv) == 3
        assert "is 2x2 but the population has 3 entries" in capsys.readouterr().err
        assert not out.exists()

    def test_step_cap_past_the_int64_bound_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale", "-0.5",
                "--scales", "0.01", "--max-steps", str(10**20), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: max_steps must be at most 9223372036854775806\n"
        assert not out.exists()

    def test_initial_is_normalized_like_a_scenario(self, tmp_path):
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale", "-0.5",
                "--scales", "0.01", "0.02", "0.04", "--out"]
        raw, unit = tmp_path / "raw.csv", tmp_path / "unit.csv"
        assert main([*argv, str(raw), "--initial", "1", "1"]) == 0
        assert main([*argv, str(unit), "--initial", "0.5", "0.5"]) == 0
        assert raw.read_bytes() == unit.read_bytes()

    def test_initial_summing_to_one_keeps_its_bits(self, tmp_path, monkeypatch):
        starts = []

        def spy(family, phi0, config):
            starts.append(phi0)
            return elimination_time_scan(family, phi0, config)

        monkeypatch.setattr("evosum.cli.elimination_time_scan", spy)
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale", "-0.5",
                "--scales", "0.01", "--out", str(tmp_path / "s.csv")]
        for initial in (["0.5", "0.5"], ["0.1", "0.9"], ["0.3", "0.7"]):
            assert main([*argv, "--initial", *initial]) == 0
            expected = PopulationVector(np.array(initial, dtype=float)).values
            assert starts[-1].values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "initial, message",
        [(["0", "0"], "total abundance"), (["-1", "2"], "negative"),
         (["nan", "1"], "not finite"), (["1", "inf"], "not finite")],
        ids=["zero-total", "negative", "nan", "inf"],
    )
    def test_bad_initial_is_validation_error(self, tmp_path, capsys, initial, message):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale", "-0.5",
                "--scales", "0.01", "--initial", *initial, "--out", str(out)]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha, beta, scales, message",
        [
            ("inf", "-0.5", ["0.01", "0.02"], "evolution matrix entry (0, 0) is not finite (-inf)"),
            ("1e300", "-0.5", ["0.01", "1e10"], CANCELLED_COLUMN),
            ("1e17", "-0.5", ["0.5", "1"], CANCELLED_COLUMN),
            ("0.02", "-0.01", ["nan", "1"], "evolution matrix entry (0, 0) is not finite (nan)"),
        ],
        ids=["inf-coupling", "overflowing-product", "cancelling-column", "nan-scale"],
    )
    def test_bad_family_member_is_validation_error(self, tmp_path, capsys, alpha, beta, scales, message):
        # The first bad scale names the error. Under the suite's warnings-as-errors,
        # an overflowing product (1e300 * 1e10) must reach the check, not warn.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--alpha-per-scale", alpha, "--beta-per-scale", beta,
                "--scales", *scales, "--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_csv_matches_serial_scan(self, tmp_path, monkeypatch):
        lo, hi, count = 0.05, 2.0, 400
        offset = float(np.random.default_rng(5).random())
        scales = [repr(lo + (i + offset) * (hi - lo) / count) for i in range(count)]
        argv = ["sweep", "--alpha-per-scale", "0.02", "--beta-per-scale", "-0.01",
                "--initial", "0.5", "0.5", "--scales", *scales, "--out"]
        lockstep, serial = tmp_path / "lockstep.csv", tmp_path / "serial.csv"
        assert main([*argv, str(lockstep)]) == 0
        monkeypatch.setattr("evosum.cli.elimination_time_scan", serial_scan)
        assert main([*argv, str(serial)]) == 0
        assert lockstep.read_bytes() == serial.read_bytes()
        assert lockstep.read_text().count(",ok\n") == count
