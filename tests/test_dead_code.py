"""No module-level function or class in ``src/flapsim`` that only the tests use.

A name counts as used when a ``Name``, an ``Attribute`` or an import alias
refers to it in the package (its ``__init__`` aside, which only re-exports),
in the benchmark's ``perfbench/run.py`` or in ``scripts/``.  The scan goes
by name, so a local variable of the same name also counts as a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flapsim"

# Test-only names that stay for now, each with its reason.
ALLOWED: dict[str, str] = {}


def _defined() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _referenced() -> set[str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [ROOT / "perfbench" / "run.py", *(ROOT / "scripts").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_package_function_and_class_is_used_outside_the_tests():
    assert sorted(_defined() - _referenced()) == sorted(ALLOWED)
