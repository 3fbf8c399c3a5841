"""No function, class or class member in ``src/flapsim`` that only the tests use.

The scan covers module-level functions and classes, and every member of a
package class: methods, properties, class and static methods and annotated
fields, each reported as ``Class.member``.  Dunders are left out: a scan by
name cannot see ``-q`` or ``p * q``, so a dunder goes only once patching it
to raise has shown that no run calls it.

A name counts as used when a ``Name``, an ``Attribute`` or an import alias
refers to it in the package (its ``__init__`` aside, which only re-exports),
in the benchmark's ``perfbench/run.py`` or in ``scripts/``.  An import on a
line marked ``# noqa`` is not a use: the linter would flag it as unused.
The scan goes by name, so a local variable of the same name also counts as
a use.
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
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(
                    member.target, ast.Name
                ):
                    name = member.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    names.add(f"{node.name}.{name}")
    return names


def _referenced() -> set[str]:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [ROOT / "perfbench" / "run.py", *(ROOT / "scripts").glob("*.py")]
    names = set()
    for path in paths:
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if "# noqa" not in "".join(lines[node.lineno - 1 : node.end_lineno]):
                    for alias in node.names:
                        names.update(alias.name.split("."))
    return names


def test_every_package_function_and_class_is_used_outside_the_tests():
    referenced = _referenced()
    unused = [n for n in _defined() if n.rpartition(".")[2] not in referenced]
    assert sorted(unused) == sorted(ALLOWED)
    assert all(ALLOWED.values()), "each allowed name needs a reason"
