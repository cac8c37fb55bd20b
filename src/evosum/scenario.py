"""Scenario files: a small JSON schema describing one system to simulate.

Top-level keys:

* ``matrix`` (required): object with exactly one of
  ``entries`` (N x N numbers), ``generator`` (N x N numbers, zero column
  sums), or ``two_species`` ({"alpha": x, "beta": y}).
* ``initial`` (required): raw nonnegative abundances; normalized on load.
* ``species_names`` (optional): defaults to species_1..species_N. A name
  may not contain a comma, a double quote, CR or LF: names become CSV
  header and event cells, which are written unquoted.
* ``dt`` (optional, default 1.0): provenance metadata with ``0 < dt < inf``,
  checked here and written back by ``save_scenario``; nothing computes with it.
* ``config`` (optional): ``max_steps``, ``convergence_tol``, ``record_every``.
* ``seed`` (optional): recorded for provenance and output determinism.

The file must be UTF-8 JSON; bytes that are not UTF-8, or arrays and
objects nested too deeply for the parser, are a parse error.

Fields that become floats take JSON numbers only: a boolean, or an
integer larger in magnitude than the largest float, is a parse error.

Floats survive a save/load round trip exactly: they are serialized with
Python's shortest round-tripping repr. Files are written atomically
(temp file plus rename), so a failed write never leaves a partial file.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass

from .core import (
    EvolutionMatrix,
    GeneratorMatrix,
    PopulationVector,
    make_population,
    matrix_from_generator,
    two_species_matrix,
)
from .dynamics import SimulationConfig
from .errors import ScenarioParseError

_TOP_KEYS = {"species_names", "dt", "matrix", "initial", "config", "seed"}
_MATRIX_KEYS = {"entries", "generator", "two_species"}
_CONFIG_KEYS = {"max_steps", "convergence_tol", "record_every"}
# Characters that would break the unquoted cells of the trajectory CSV.
_CSV_SPECIAL = frozenset(',"\r\n')
# Exact types, not isinstance: JSON true/false decode to bool, a subclass of int.
_NUMBER_TYPES = {int, float}
# Every number field becomes a float; a JSON integer beyond this would overflow.
_FLOAT_MAX = int(sys.float_info.max)


@dataclass(frozen=True)
class Scenario:
    species_names: tuple[str, ...]
    dt: float
    matrix_spec: dict
    matrix: EvolutionMatrix
    initial_raw: tuple[float, ...]
    initial: PopulationVector
    config: SimulationConfig
    seed: int | None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioParseError(message)


def _numbers(values: list) -> bool:
    """True when every value is a JSON number, not a boolean, within float range."""
    kinds = set(map(type, values))
    return kinds <= _NUMBER_TYPES and (
        int not in kinds or all(abs(v) <= _FLOAT_MAX for v in values if type(v) is int)
    )


def _matrix_rows(value, field: str) -> list[list[float]]:
    """Validate a square array of numeric rows; the matrix type converts it once."""
    _require(isinstance(value, list) and value, f"field '{field}' must be a nonempty array of rows")
    for i, row in enumerate(value):
        _require(
            isinstance(row, list) and _numbers(row),
            f"field '{field}' row {i} must be an array of numbers",
        )
    _require(
        all(len(row) == len(value) for row in value),
        f"field '{field}' must be square ({len(value)} rows)",
    )
    return value


def _build_matrix(spec: dict) -> EvolutionMatrix:
    present = _MATRIX_KEYS & spec.keys()
    _require(
        len(present) == 1,
        f"field 'matrix' must contain exactly one of {sorted(_MATRIX_KEYS)}, got {sorted(spec)}",
    )
    (kind,) = present
    if kind == "entries":
        return EvolutionMatrix(_matrix_rows(spec["entries"], "matrix.entries"))
    if kind == "generator":
        return matrix_from_generator(
            GeneratorMatrix(_matrix_rows(spec["generator"], "matrix.generator"))
        )
    block = spec["two_species"]
    _require(
        isinstance(block, dict) and set(block) == {"alpha", "beta"},
        "field 'matrix.two_species' must be an object with keys alpha and beta",
    )
    _require(
        _numbers([block["alpha"], block["beta"]]),
        "field 'matrix.two_species' values must be numbers",
    )
    return two_species_matrix(float(block["alpha"]), float(block["beta"]))


def _build_config(raw: dict | None) -> SimulationConfig:
    if raw is None:
        return SimulationConfig()
    _require(isinstance(raw, dict), "field 'config' must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")
    defaults = SimulationConfig()
    max_steps = raw.get("max_steps", defaults.max_steps)
    record_every = raw.get("record_every", defaults.record_every)
    tol = raw.get("convergence_tol", defaults.convergence_tol)
    for key, value in (("max_steps", max_steps), ("record_every", record_every)):
        _require(
            type(value) is int,
            f"config field '{key}' must be an integer",
        )
    _require(
        _numbers([tol]) and math.isfinite(tol) and tol >= 0,
        "config field 'convergence_tol' must be a finite number >= 0",
    )
    return SimulationConfig(
        max_steps=max_steps, convergence_tol=float(tol), record_every=record_every
    )


def scenario_from_dict(data: dict) -> Scenario:
    _require(isinstance(data, dict), "scenario must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"unknown scenario fields: {sorted(unknown)}")
    _require("matrix" in data, "missing required field 'matrix'")
    _require("initial" in data, "missing required field 'initial'")
    _require(isinstance(data["matrix"], dict), "field 'matrix' must be an object")

    dt = data.get("dt", 1.0)
    _require(_numbers([dt]) and 0 < dt < math.inf, "field 'dt' must be a positive finite number")
    matrix = _build_matrix(data["matrix"])

    initial = data["initial"]
    _require(
        isinstance(initial, list) and _numbers(initial),
        "field 'initial' must be an array of numbers",
    )
    _require(
        len(initial) == matrix.n,
        f"field 'initial' has {len(initial)} entries but the matrix is {matrix.n}x{matrix.n}",
    )

    names = data.get("species_names")
    if names is None:
        names = [f"species_{i + 1}" for i in range(matrix.n)]
    _require(
        isinstance(names, list) and all(isinstance(s, str) for s in names),
        "field 'species_names' must be an array of strings",
    )
    _require(
        len(names) == matrix.n,
        f"field 'species_names' has {len(names)} entries but the matrix is {matrix.n}x{matrix.n}",
    )
    for name in names:
        _require(
            not _CSV_SPECIAL & set(name),
            f"species name {name!r} contains a comma, double quote, CR or LF",
        )

    seed = data.get("seed")
    _require(
        seed is None or type(seed) is int,
        "field 'seed' must be an integer",
    )

    return Scenario(
        species_names=tuple(names),
        dt=float(dt),
        matrix_spec=data["matrix"],
        matrix=matrix,
        initial_raw=tuple(float(x) for x in initial),
        initial=make_population(initial),
        config=_build_config(data.get("config")),
        seed=seed,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # one whole-file decode: offsets are file offsets
            raise ScenarioParseError(f"{path}: not UTF-8: invalid byte at offset {exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioParseError(f"{path}: invalid JSON: nested too deeply") from exc
    try:
        return scenario_from_dict(data)
    except ScenarioParseError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    data = {
        "species_names": list(scenario.species_names),
        "dt": scenario.dt,
        "matrix": scenario.matrix_spec,
        "initial": list(scenario.initial_raw),
        "config": {
            "max_steps": scenario.config.max_steps,
            "convergence_tol": scenario.config.convergence_tol,
            "record_every": scenario.config.record_every,
        },
    }
    if scenario.seed is not None:
        data["seed"] = scenario.seed
    return data


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _atomic_write(path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temp file beside ``path``, then rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".evosum-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_scenario(scenario: Scenario, path) -> None:
    _atomic_write(path, [_json_text(scenario_to_dict(scenario))])
