import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosum import (
    ActiveSystem,
    PopulationVector,
    elimination_time_scan,
    evolve,
    load_scenario,
    random_competitive,
    random_stochastic,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    stationary_by_iteration,
)
from evosum.cli import main
from evosum.errors import ScenarioParseError
from test_dynamics import serial_evolve, serial_scan

# A JSON integer with 401 digits: valid JSON, far beyond the largest float.
HUGE = 10**400
# st.text()'s default alphabet less the characters a species name may not hold.
NAME_CHARACTERS = st.characters(codec="utf-8", exclude_characters=',"\r\n')


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
            st.text(NAME_CHARACTERS, min_size=1, max_size=6), min_size=n, max_size=n
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


def write_scenario(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


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

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
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

    def test_round_trip_is_structurally_identical(self, case_a, tmp_path):
        scenario = load_scenario(case_a)
        copy_path = tmp_path / "copy.json"
        save_scenario(scenario, copy_path)
        assert scenario_to_dict(load_scenario(copy_path)) == scenario_to_dict(scenario)

    @given(scenario_dicts())
    @settings(max_examples=80, deadline=None)
    def test_save_load_round_trip_is_exact(self, tmp_path_factory, data):
        scenario = scenario_from_dict(data)
        assert scenario.dt == data.get("dt", 1.0)
        path = tmp_path_factory.mktemp("round-trip") / "s.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(scenario)
        assert loaded.dt == scenario.dt
        assert loaded.matrix.entries.tobytes() == scenario.matrix.entries.tobytes()

    def test_failed_save_keeps_existing_file(self, case_a, tmp_path):
        scenario = load_scenario(case_a)
        path = tmp_path / "kept.json"
        save_scenario(scenario, path)
        original = path.read_bytes()
        unserializable = dataclasses.replace(scenario, matrix_spec={"entries": {1, 2}})
        with pytest.raises(TypeError):
            save_scenario(unserializable, path)
        assert path.read_bytes() == original
        assert list(tmp_path.glob(".evosum-*.tmp")) == []


class TestExitCodes:
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
                "config": {"max_steps": HUGE, "record_every": HUGE},
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


class TestSimulate:
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
        trajectory = evolve(
            ActiveSystem(matrix=scenario.matrix, populations=scenario.initial), scenario.config
        )
        assert len(trajectory.events) >= 1
        names = scenario.species_names
        lines = ["step,tau," + ",".join(names) + ",event"]
        for k in range(len(trajectory.steps)):
            species = int(trajectory.event_species[k])
            event = "" if species < 0 else f"elim:{names[species]}"
            values = ",".join(repr(float(x)) for x in trajectory.values[k])
            tau = repr(float(trajectory.fractions[k]))
            lines.append(f"{int(trajectory.steps[k])},{tau},{values},{event}")
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize(
        "matrix, config, events",
        [
            (random_competitive(40, 0.5, 0.5, 3), {"max_steps": 3000, "record_every": 7}, 34),
            (random_stochastic(10, 0.3, 4), {"max_steps": 10_000}, 0),
        ],
        ids=["cascade", "converging"],
    )
    def test_outputs_match_serial_engine(self, tmp_path, monkeypatch, matrix, config, events):
        initial = list(range(1, matrix.n + 1))
        data = {"matrix": {"entries": matrix.entries.tolist()}, "initial": initial, "config": config}
        argv = ["simulate", "--scenario", write_scenario(tmp_path / "s.json", data), "--out"]
        assert main([*argv, str(tmp_path / "block.csv")]) == 0
        monkeypatch.setattr("evosum.cli.evolve", serial_evolve)
        assert main([*argv, str(tmp_path / "serial.csv")]) == 0
        for suffix in (".csv", ".csv.summary.json"):
            assert (tmp_path / f"block{suffix}").read_bytes() == (tmp_path / f"serial{suffix}").read_bytes()
        summary = json.loads((tmp_path / "block.csv.summary.json").read_text())
        assert len(summary["events"]) == events
        assert summary["exit_reason"] == "Converged"

    def test_max_steps_override(self, case_a, tmp_path):
        out = tmp_path / "short.csv"
        main(["simulate", "--scenario", case_a, "--out", str(out), "--max-steps", "3"])
        lines = out.read_text().strip().splitlines()
        assert lines[-1].split(",")[0] == "3"


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
        ],
    )
    def test_non_finite_argument_is_validation_error(self, capsys, argv, message):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

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

    def test_initial_is_normalized_like_a_scenario(self, tmp_path):
        argv = ["sweep", "--alpha-per-scale", "1.0", "--beta-per-scale", "-0.5",
                "--scales", "0.01", "0.02", "0.04", "--out"]
        raw, unit = tmp_path / "raw.csv", tmp_path / "unit.csv"
        assert main([*argv, str(raw), "--initial", "1", "1"]) == 0
        assert main([*argv, str(unit), "--initial", "0.5", "0.5"]) == 0
        assert raw.read_bytes() == unit.read_bytes()

    def test_initial_summing_to_one_keeps_its_bits(self, tmp_path, monkeypatch):
        starts = []

        def spy(builder, phi0, scales, config):
            starts.append(phi0)
            return elimination_time_scan(builder, phi0, scales, config)

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
