"""No dead code in the library.

Every module-level class and non-dunder function of ``src/lieranders`` and
every non-dunder method must be referred to outside its own definition, by code
in ``src/lieranders`` or ``perfbench/``.  An exported name needs such a caller
too: the package's name table (``lieranders._SOURCES``) does not count, and
neither do tests, so an entry point or helper that only the tests use belongs
in ``tests/``.  ``EXCUSED`` names the one exception and its reason.

A reference is an identifier in the code (a name, an attribute, an import)
or a string constant that is a dotted name, as in the tracer's targets
(``"LieAlgebra.bracket"``); comments and docstrings do not count.  The
match is by name alone, so it misses a dead name that another definition
shares: a ``MetricTensor.norm_squared`` method would pass because
``NormTooLarge`` has an attribute ``norm_squared``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lieranders"
SOURCES = sorted(PACKAGE.glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
# ROADMAP item 2 gives the sign certificate its caller: ``theorem`` prints it
EXCUSED = {"sign_certificate"}


def references(node):
    """Count of each identifier the code under ``node`` refers to."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                names.update(sub.value.split("."))
    return names


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, bare name, node) of every module-level class and
    non-dunder function and every non-dunder method: the interpreter calls a
    dunder, as it calls a module's ``__getattr__``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_dunder(node.name)
        ):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_dunder(
                    item.name
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def name_table(tree):
    """The ``_SOURCES = {...}`` assignment of the package's ``__init__``."""
    (table,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_SOURCES"]
    ]
    return table


def dead_names():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + CALLERS}
    total = sum((references(tree) for tree in trees.values()), Counter())
    total.subtract(references(name_table(trees[PACKAGE / "__init__.py"])))
    return [
        qualified
        for path in SOURCES
        for qualified, name, node in definitions(trees[path])
        if total[name] == references(node)[name]
    ]


def test_every_library_definition_has_a_caller():
    dead = dead_names()
    unexcused = [name for name in dead if name not in EXCUSED]
    assert not unexcused, "no caller outside tests/: " + ", ".join(unexcused)
    # an exception that gains a caller leaves the list
    assert EXCUSED <= set(dead), "excused but called: " + ", ".join(EXCUSED - set(dead))
