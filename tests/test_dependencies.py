"""The runtime dependency is numpy only.

Every absolute import in ``src/evosum`` must name a standard-library module
or numpy; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evosum"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    outside = [
        f"{path.name}: {name}"
        for path in sources
        for name in absolute_imports(path)
        if name.split(".")[0] not in ALLOWED
    ]
    assert outside == []
