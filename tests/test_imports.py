"""Every name a joulemark module imports is used in it, so that a deletion
cannot leave a dead import behind.  ``__init__.py`` imports to re-export,
and is not checked."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    path for path in (Path(__file__).resolve().parent.parent / "src" / "joulemark").glob("*.py")
    if path.name != "__init__.py"
)


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
