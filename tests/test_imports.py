"""Every name a joulemark module imports is used in it, so that a deletion
cannot leave a dead import behind.  ``__init__.py`` imports to re-export,
and is not checked.  The analysis modules stand below the simulator, the
acquisition layer and the CLI: a trace read from a file is analysed
without importing any of them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "joulemark"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ANALYSIS = ["trace", "floattext", "energy", "jsonio", "stats", "segment"]
ABOVE_ANALYSIS = {"simulate", "acquisition", "cli"}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, annotations written as strings included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert imported_names(tree) - used_names(tree) == set()


def test_dead_imports_are_found():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom pathlib import Path\nfrom typing import Callable\n"
        "def f(x: 'Callable[[], int]') -> int:\n    return np.size(x)\n"
    )
    assert imported_names(tree) - used_names(tree) == {"os", "Path"}


def package_imports(tree: ast.Module) -> set[str]:
    """The joulemark modules that a module's relative imports name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.partition(".")[0])
    return names


def imported_modules(module: str) -> set[str]:
    """The joulemark modules that importing ``module`` imports, directly or
    through another joulemark module."""
    seen, todo = set(), [module]
    while todo:
        tree = ast.parse((PACKAGE / f"{todo.pop()}.py").read_text())
        new = package_imports(tree) - seen
        seen |= new
        todo += new
    return seen


@pytest.mark.parametrize("module", ANALYSIS)
def test_analysis_imports_nothing_above_it(module):
    assert imported_modules(module) & ABOVE_ANALYSIS == set()


def test_package_imports_are_found():
    tree = ast.parse("from . import trace as t, energy\nfrom .simulate import RELAY\nimport numpy\n")
    assert package_imports(tree) == {"trace", "energy", "simulate"}
    assert "simulate" in imported_modules("cli") and "trace" in imported_modules("segment")


# A value type holds its number fields by trace.number's rule, not by checks
# of its own.  GpioCommand is the one exception: a log may be built one
# command at a time, and the rule for both of its fields measured 3.9 us a
# command against 0.8 us for its inline check (one Xeon core, Python 3.11).
OWN_NUMBER_CHECKS = {"GpioCommand"}


def own_number_checks(tree: ast.Module) -> dict[str, set[str]]:
    """For each class whose ``__post_init__`` checks a number itself, what it
    uses: ``math.isfinite``, ``sys.float_info`` or ``isinstance(..., bool)``."""
    found: dict[str, set[str]] = {}
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    name = f"{node.value.id}.{node.attr}"
                    if name in ("math.isfinite", "sys.float_info"):
                        found.setdefault(cls.name, set()).add(name)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                    kinds = node.args[1]
                    kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                    if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                        found.setdefault(cls.name, set()).add("isinstance(..., bool)")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_value_types_hold_numbers_by_the_one_rule(path):
    found = own_number_checks(ast.parse(path.read_text(), filename=str(path)))
    assert {name: uses for name, uses in found.items() if name not in OWN_NUMBER_CHECKS} == {}


def test_own_number_checks_are_found():
    tree = ast.parse(
        "import math, sys\n"
        "class A:\n    def __post_init__(self):\n        math.isfinite(self.x)\n"
        "class B:\n    def __post_init__(self):\n        isinstance(self.x, (int, bool)) or sys.float_info.max\n"
        "class C:\n    def __post_init__(self):\n        hold_number(self, 'x', '{}')\n"
        "    def check(self):\n        math.isfinite(self.x)\n"
    )
    assert own_number_checks(tree) == {
        "A": {"math.isfinite"}, "B": {"isinstance(..., bool)", "sys.float_info"}
    }
