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
ANALYSIS = ["trace", "textrows", "energy", "jsonio", "stats", "segment"]
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


# A function holds numbers by trace.number's rule, not by checks of its own.
# Two keep their own check. GpioCommand.__post_init__ runs once per command,
# since a log may be built one command at a time, and the rule for both its
# fields measured over four times slower (best of 15 runs over 16,000
# commands, one Xeon core, Python 3.11: 3.6-3.8 us a command against
# 0.83-0.89 us inline). GpioCommandLog._hold checks a log's whole time column
# at once, which the rule, made for one number, does not.
OWN_NUMBER_CHECKS = {"instrument.GpioCommand.__post_init__", "instrument.GpioCommandLog._hold"}


def functions(tree: ast.Module):
    """Each module-level function and method, with its name (``Class.method``)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def own_number_checks(tree: ast.Module) -> dict[str, set[str]]:
    """For each function that checks a number itself, what it uses:
    ``.is_integer()``, ``sys.float_info``, ``math.inf`` or ``isinstance(...,
    bool)``, and in a ``__post_init__`` also ``math.isfinite`` (elsewhere it
    checks outputs, such as an analysis's energies, which may also be
    written as ``float("inf")``)."""
    found: dict[str, set[str]] = {}
    for name, function in functions(tree):
        for node in ast.walk(function):
            use = None
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                attribute = f"{node.value.id}.{node.attr}"
                if attribute in ("sys.float_info", "math.inf") or attribute == "math.isfinite" and name.endswith(".__post_init__"):
                    use = attribute
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "is_integer":
                use = ".is_integer()"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                    use = "isinstance(..., bool)"
            if use:
                found.setdefault(name, set()).add(use)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_functions_hold_numbers_by_the_one_rule(path):
    found = own_number_checks(ast.parse(path.read_text(), filename=str(path)))
    assert {f"{path.stem}.{name}" for name in found} - OWN_NUMBER_CHECKS - {"trace.number"} == set()


def test_each_listed_exception_checks_a_number_itself():
    for qualified in OWN_NUMBER_CHECKS | {"trace.number"}:
        module, _, name = qualified.partition(".")
        assert name in own_number_checks(ast.parse((PACKAGE / f"{module}.py").read_text()))


def test_own_number_checks_are_found():
    tree = ast.parse(
        "import math, sys\n"
        "class A:\n    def __post_init__(self):\n        math.isfinite(self.x)\n"
        "class B:\n    def __post_init__(self):\n        isinstance(self.x, (int, bool)) or sys.float_info.max\n"
        "class C:\n    def __post_init__(self):\n        hold_number(self, 'x', '{}')\n"
        "    def check(self):\n        return math.isfinite(self.x) or float(self.x).is_integer()\n"
        "def read(x):\n    return isinstance(x, bool) or abs(x) <= sys.float_info.max\n"
        "def report(total):\n    return math.isfinite(total)\n"
        "def parse(t):\n    return 0 <= float(t) < math.inf\n"
        "def ratio(a, b):\n    return a / b if b else float('inf')\n"
    )
    assert own_number_checks(tree) == {
        "A.__post_init__": {"math.isfinite"},
        "B.__post_init__": {"isinstance(..., bool)", "sys.float_info"},
        "C.check": {".is_integer()"},
        "read": {"isinstance(..., bool)", "sys.float_info"},
        "parse": {"math.inf"},
    }


# Text is laid out as uint8 matrices of text rows in one module, textrows.py;
# every other module hands it numbers and texts.
def uses_uint8(tree: ast.Module) -> bool:
    """Whether a module names numpy's uint8, as an attribute or a dtype string."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "uint8" or isinstance(node, ast.Constant) and node.value == "uint8"
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_textrows_lays_out_text_rows(path):
    assert uses_uint8(ast.parse(path.read_text(), filename=str(path))) == (path.name == "textrows.py")


def test_uint8_uses_are_found():
    assert uses_uint8(ast.parse("import numpy as np\nnp.zeros(3, dtype=np.uint8)\n"))
    assert uses_uint8(ast.parse("import numpy\nnumpy.frombuffer(b'', 'uint8')\n"))
    assert not uses_uint8(ast.parse("import numpy as np\nnp.zeros(3, dtype=np.int64)\n"))
