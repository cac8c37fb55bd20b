"""Every public name is reached by the program, not only by its own tests.

A name in ``evosum.__all__`` counts as reached when either holds:

* a ``from ... import`` in another ``src/evosum`` module (``__init__.py``
  aside) or in a ``bench/*.py`` file names it;
* its own module loads it outside its own definition.

A load inside a function or comprehension that binds the same name itself,
such as a loop variable, does not count. There are no exceptions: a name
that only tests reach is deleted, or moved into the tests, rather than
exported.

The fields of a public dataclass are held to the same rule: each must be
read as an attribute (``x.field``) somewhere in ``src/evosum`` or
``bench/*.py``. The match is by attribute name alone, whatever the type
of ``x``, so a field counts as read when any attribute of that name is.

A module-level private function, class or constant (a leading ``_``, not
a dunder) must be used by the package itself: loaded as a name outside
its own definition, read as an attribute, or imported by another module
of ``src/evosum``. Tests and the benchmark do not count, so a helper the
program stopped calling is deleted with its last call.
"""

import ast
import dataclasses
from pathlib import Path

import evosum

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "evosum"

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def home_modules() -> dict[str, str]:
    """Each name that ``__init__.py`` imports, mapped to the module it comes from."""
    return {
        alias.asname or alias.name: node.module
        for node in parse(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def evosum_imports(tree: ast.Module) -> set[str]:
    """Names that ``tree`` takes with a ``from ... import`` out of evosum."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "evosum")
        for alias in node.names
    }


def binds(node: ast.AST, name: str) -> bool:
    """Whether a function, lambda or comprehension binds ``name`` in its own scope."""
    if isinstance(node, SCOPES):
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if any(param is not None and param.arg == name for param in params):
            return True
        stored = ast.walk(node)
    elif isinstance(node, COMPREHENSIONS):
        stored = (n for generator in node.generators for n in ast.walk(generator.target))
    else:
        return False
    return any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id == name for n in stored)


def loads(tree: ast.AST, name: str) -> list[int]:
    """Lines where ``tree`` loads its module-level ``name``, outside that name's definition."""
    lines = []

    def visit(node: ast.AST, shadowed: bool) -> None:
        definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if isinstance(node, definitions) and node.name == name:
            return
        shadowed = shadowed or binds(node, name)
        loaded = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        if loaded and node.id == name and not shadowed:
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, False)
    return lines


def reached_names() -> set[str]:
    homes = home_modules()
    sources = {path.stem: parse(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    imports = {stem: evosum_imports(tree) for stem, tree in sources.items()}
    bench_imports = set().union(*(evosum_imports(parse(path)) for path in ROOT.glob("bench/*.py")))
    reached = set()
    for name in evosum.__all__:
        home = homes[name]
        imported = any(name in names for stem, names in imports.items() if stem != home)
        if imported or name in bench_imports or loads(sources[home], name):
            reached.add(name)
    return reached


def loaded_attributes() -> set[str]:
    """Names read as ``x.name`` anywhere in ``src/evosum`` or ``bench/*.py``."""
    paths = [*PACKAGE.glob("*.py"), *ROOT.glob("bench/*.py")]
    return {
        node.attr
        for path in paths
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private functions, classes and constants that ``tree`` defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unused_private_names() -> list[str]:
    """``module.name`` of each private definition that no ``src/evosum`` module uses."""
    sources = {path.stem: parse(path) for path in PACKAGE.glob("*.py")}
    imports = {stem: evosum_imports(tree) for stem, tree in sources.items()}
    attributes = {
        node.attr
        for tree in sources.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unused = []
    for stem, tree in sources.items():
        for name in sorted(private_definitions(tree)):
            imported = any(name in names for other, names in imports.items() if other != stem)
            loaded = any(loads(source, name) for source in sources.values())
            if not (imported or loaded or name in attributes):
                unused.append(f"{stem}.{name}")
    return unused


def test_every_public_name_comes_from_a_package_module():
    assert sorted(set(evosum.__all__) - set(home_modules())) == []


def test_every_public_name_is_reached():
    reached = reached_names()
    assert sorted(name for name in evosum.__all__ if name not in reached) == []


def test_every_public_dataclass_field_is_read():
    loaded = loaded_attributes()
    public = (getattr(evosum, name) for name in evosum.__all__)
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in public
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if field.name not in loaded
    ]
    assert sorted(unread) == []


def test_local_bindings_and_own_definition_do_not_count():
    tree = ast.parse(
        "def step(x):\n"
        "    return step(x - 1) if x else 0\n"
        "def run(rows):\n"
        "    for step in rows:\n"
        "        print(step)\n"
        "squares = [step * step for step in range(3)]\n"
        "double = lambda step: 2 * step\n"
        "def uses(n):\n"
        "    return step(n)\n"
    )
    assert loads(tree, "step") == [9]


def test_every_private_name_is_used_by_the_package():
    assert unused_private_names() == []


def test_private_definitions_are_module_level_and_not_dunders():
    tree = ast.parse(
        "__all__ = []\n"
        "_LIMIT: int = 3\n"
        "class _Kind:\n"
        "    _inner = 1\n"
        "def _helper():\n"
        "    _local = 1\n"
        "def public():\n"
        "    pass\n"
    )
    assert private_definitions(tree) == {"_LIMIT", "_Kind", "_helper"}
