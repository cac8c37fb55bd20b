"""Spans around the calls between evosum modules, recorded from outside.

The tracer replaces module attributes with timing wrappers, so it needs no
change to the package. It wraps the public names that ``evosum.cli``,
``evosum.scenario`` and ``evosum.dynamics`` look up at call time, which
covers every call from one layer into another, plus two names ``dynamics``
calls on itself once per engine step or run (``evolve``, ``crossing_fraction``).
``cli.main`` is the root span of each invocation. Private helpers are
never wrapped, so renaming them does not break the benchmark; a name a
module no longer binds is skipped. Value records (``Scenario``,
``SimulationConfig``, ``ActiveSystem``, ``TwoSpeciesParams``), exception
classes and constants are not wrapped.

Spans stay in flat in-memory arrays while the workload runs and are
written out once at the end; ``Spans`` loads them and gives each span its
self time (duration minus the time covered by its direct children).
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

ROOT = "cli.main"

# (module, attribute, span name). The span name is the layer that does the work.
WRAPPED = (
    ("cli", "main", ROOT),
    ("cli", "load_scenario", "scenario.load_scenario"),
    ("cli", "evolve", "dynamics.evolve"),
    ("cli", "evolve_backward", "dynamics.evolve_backward"),
    ("cli", "elimination_time_scan", "dynamics.elimination_time_scan"),
    ("cli", "eigendecompose", "spectral.eigendecompose"),
    ("cli", "check_biorthogonality", "spectral.check_biorthogonality"),
    ("cli", "PopulationVector", "core.construct"),
    ("cli", "two_species_matrix", "core.construct"),
    ("cli", "classify_regime", "two_species.classify_regime"),
    ("cli", "predict_winner", "two_species.predict_winner"),
    ("scenario", "EvolutionMatrix", "core.construct"),
    ("scenario", "GeneratorMatrix", "core.construct"),
    ("scenario", "make_population", "core.construct"),
    ("scenario", "matrix_from_generator", "core.construct"),
    ("scenario", "two_species_matrix", "core.construct"),
    ("dynamics", "EvolutionMatrix", "core.construct"),
    ("dynamics", "PopulationVector", "core.construct"),
    ("dynamics", "negative_offdiag_count", "core.negative_offdiag_count"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "crossing_fraction", "dynamics.crossing_fraction"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))


class Tracer:
    """Records (name, start, end, parent, invocation) for every wrapped call."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.invocation = array("i")
        self._stack = [-1]
        self._current = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, root: bool):
        name, start, end, parent, invocation, stack = (
            self.name, self.start, self.end, self.parent, self.invocation, self._stack
        )

        def traced(*args, **kwargs):
            if root:
                self._current += 1
            index = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            invocation.append(self._current)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module("evosum." + module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, SPAN_NAMES.index(span), span == ROOT))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def save(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            invocation=np.frombuffer(self.invocation, dtype=np.int32),
        )


class Spans:
    """Loaded span arrays plus the self time of each span."""

    def __init__(self, path: str):
        with np.load(path) as data:
            self.name = data["name"]
            self.parent = data["parent"]
            self.invocation = data["invocation"]
            duration = data["end"] - data["start"]
        children = np.zeros_like(duration)
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], duration[has_parent])
        self.self_time = duration - children

    def __len__(self) -> int:
        return self.name.size

    def named(self, span: str) -> np.ndarray:
        return self.name == SPAN_NAMES.index(span)

    def under(self, span: str) -> np.ndarray:
        """Mask of spans that have an ancestor named ``span``."""
        target = SPAN_NAMES.index(span)
        found = np.zeros(len(self), dtype=bool)
        ancestor = self.parent.copy()
        while True:
            live = ancestor >= 0
            if not live.any():
                return found
            found[live] |= self.name[ancestor[live]] == target
            ancestor[live] = self.parent[ancestor[live]]
