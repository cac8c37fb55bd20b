"""List the lines of the evosum package that the tests never run.

Runs the tests in this process under a ``sys.settrace`` line tracer, with a
fixed Hypothesis seed, then compiles each module of the package and prints
every line that carries code but never ran. One line may stay unreached:
``cli.py``'s ``sys.exit(main())``, which runs only when the CLI is started
as a program, and so only in a subprocess. It is matched by its text, not
its number. Exits 1 when any other line is unreached or a test fails.

Run from the repository root, with the package importable::

    PYTHONPATH=src python tools/unreached_lines.py

Tracing roughly doubles the tests' run time.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: (file name, stripped source text) of each line allowed to stay unreached.
ALLOWED = {("cli.py", "sys.exit(main())")}


def code_lines(code) -> set[int]:
    """The line numbers that carry code in ``code`` and in every code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def run_traced(package: Path) -> tuple[int, set[tuple[str, int]]]:
    """The tests' exit status and the (file, line) pairs of the package that ran."""
    prefix = str(package)
    hit: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    # Only frames of the package's own code are traced line by line.
    sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code.co_filename.startswith(prefix) else None)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(status), hit


def main() -> int:
    # Located, not imported: the package's module-level lines must run under the tracer.
    package = Path(importlib.util.find_spec("evosum").origin).parent
    status, hit = run_traced(package)
    unreached = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for line in sorted(code_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in hit:
                unreached.append((path.name, line, lines[line - 1].strip()))
    unexpected = [entry for entry in unreached if (entry[0], entry[2]) not in ALLOWED]
    for name, line, text in unreached:
        allowed = "" if (name, text) in ALLOWED else "  <- not allowed"
        print(f"{name}:{line}: {text}{allowed}")
    print(f"{len(unreached)} unreached, {len(unexpected)} not allowed; tests exit {status}")
    return 1 if unexpected or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
