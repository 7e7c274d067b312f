"""No joulemark module changes the process's warning state: the filters and
the show hook are shared by every thread, so a library that sets them can
lose another thread's warnings or leave its own settings behind."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "joulemark").glob("*.py"))

PROCESS_WIDE = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}


def warning_state_names(tree: ast.Module) -> set[str]:
    """The names in PROCESS_WIDE that the module reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names & PROCESS_WIDE


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_leaves_warning_state_alone(path):
    assert warning_state_names(ast.parse(path.read_text(), filename=str(path))) == set()


def test_warning_state_calls_are_found():
    tree = ast.parse(
        "import warnings\nfrom warnings import simplefilter\n"
        "with warnings.catch_warnings(record=True):\n    simplefilter('always')\n"
        "warnings.warn('kept')\n"
    )
    assert warning_state_names(tree) == {"catch_warnings", "simplefilter"}
