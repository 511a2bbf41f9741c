"""The demos import only names that the package provides.

Running the demos takes tens of seconds, so this only resolves their
imports from ``decompound``: a removed or renamed name fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(tree):
    """(module, name) for each name a script imports from decompound;
    name is None for a plain ``import decompound...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "decompound":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "decompound":
                    yield alias.name, None


def test_demos_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    imports = list(_package_imports(ast.parse(path.read_text(), filename=str(path))))
    assert imports, f"{path.name} imports nothing from decompound"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:  # a submodule, e.g. ``from decompound import harness``
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name}: {module_name} has no name {name!r}")
