"""The demos import only names the package still has (they are not run)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_imports(path: Path):
    """(module, name) for every ``from devexplain... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if node.module.split(".")[0] == "devexplain":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(package_imports(path))
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
