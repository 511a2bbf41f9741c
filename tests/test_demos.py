"""The demos and the README's Quick start use only what the package provides.

Running the demos takes tens of seconds, so this only reads them: each
name they import from ``decompound`` must resolve, and each keyword
argument they pass to such a name must be one of its parameters.  A removed
or renamed name or parameter fails here.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_start():
    """The README's Quick-start code block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", text, re.S)
    assert block, "README.md has no Quick-start python block"
    return block.group(1)


SOURCES = [pytest.param(path.read_text(), id=path.stem) for path in DEMOS]
SOURCES.append(pytest.param(_quick_start(), id="README-quick-start"))


def _package_imports(tree):
    """(module, name, bound name) for each name a script imports from
    decompound; name is None for a plain ``import decompound...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "decompound":
                for alias in node.names:
                    yield node.module, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "decompound":
                    yield alias.name, None, None


def test_demos_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    imports = list(_package_imports(ast.parse(path.read_text(), filename=str(path))))
    assert imports, f"{path.name} imports nothing from decompound"
    for module_name, name, _ in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:  # a submodule, e.g. ``from decompound import harness``
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name}: {module_name} has no name {name!r}")


@pytest.mark.parametrize("source", SOURCES)
def test_keywords_passed_to_package_names_are_parameters(source):
    tree = ast.parse(source)
    imported = {}
    for module_name, name, bound in _package_imports(tree):
        value = getattr(importlib.import_module(module_name), name or "", None)
        if callable(value):
            imported[bound] = inspect.signature(value).parameters
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in imported):
            continue
        params = imported[call.func.id]
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for keyword in call.keywords:
            assert keyword.arg is None or keyword.arg in params, \
                f"line {call.lineno}: {call.func.id} has no parameter {keyword.arg!r}"
