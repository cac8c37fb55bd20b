"""One error class per exit code.

``evosum.errors`` defines exactly ``EvosumError`` and its three subclasses,
one per CLI exit code (2, 3, 4), and every ``raise`` in ``src/evosum``
names one of the three, ``OSError`` or one of its builtin subclasses
(exit 5), or re-raises. A bare ``ValueError`` or a new leaf class would
end in a traceback and exit 1, or add a name nothing catches. No
function raises an error that it catches itself.

The CLI's ``main`` is the one place that turns an error into a stderr
line and an exit code, so no ``cmd_*`` command writes to ``sys.stderr``.
"""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evosum"
# Each maps to one exit code in `cli.main`: 2, 3, 4 and, for OSError and its subclasses, 5.
EXIT_CODE_CLASSES = {"ScenarioParseError", "ValidationError", "NumericalError"} | {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, OSError)
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def handler_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return set()
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {ast.unparse(t) for t in types}


def raises(node: ast.AST, caught: frozenset = frozenset()):
    """Yield ``(raise node, names caught around it in the same function)``."""
    if isinstance(node, ast.Raise):
        yield node, caught
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        caught = frozenset()
    if isinstance(node, ast.Try):
        inner = caught.union(*map(handler_names, node.handlers))
        for child in node.body:
            yield from raises(child, inner)
        for child in [*node.handlers, *node.orelse, *node.finalbody]:
            yield from raises(child, caught)
        return
    for child in ast.iter_child_nodes(node):
        yield from raises(child, caught)


def raised_name(node: ast.Raise) -> str | None:
    """The class a ``raise`` names, or None for a bare re-raise."""
    if node.exc is None:
        return None
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc)


def test_every_raise_names_an_exit_code_class():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    stray, self_caught = [], []
    for path in sources:
        for node, caught in raises(parse(path)):
            name = raised_name(node)
            if name is None or name in EXIT_CODE_CLASSES:
                continue
            found = f"{path.name}:{node.lineno}: {name}"
            (self_caught if name in caught else stray).append(found)
    assert stray == []
    assert self_caught == []


def test_no_command_writes_to_stderr():
    commands = [
        node
        for node in parse(PACKAGE / "cli.py").body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    assert commands, "no cmd_* functions in cli.py"
    writes = [
        f"{command.name}:{node.lineno}"
        for command in commands
        for node in ast.walk(command)
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
    ]
    assert writes == []


def test_errors_module_defines_one_class_per_exit_code():
    classes = {
        node.name: [ast.unparse(base) for base in node.bases]
        for node in parse(PACKAGE / "errors.py").body
        if isinstance(node, ast.ClassDef)
    }
    assert classes == {
        "EvosumError": ["Exception"],
        "ScenarioParseError": ["EvosumError"],
        "ValidationError": ["EvosumError"],
        "NumericalError": ["EvosumError"],
    }


def test_no_other_module_defines_an_exception():
    defined = [
        f"{path.name}: {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)
    ]
    assert defined == []
