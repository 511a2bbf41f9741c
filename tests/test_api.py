"""The public API is declared once: each module's __all__, re-exported by the
package; and no module imports a name it never uses."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import decompound

MODULES = [importlib.import_module(f"decompound.{info.name}")
           for info in pkgutil.iter_modules(decompound.__path__)]
DECLARING = [module for module in MODULES if hasattr(module, "__all__")]


def test_every_declared_name_resolves_in_its_module():
    for module in DECLARING:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_no_name_is_declared_twice():
    # a name in two lists would let one star import shadow another
    names = [name for module in DECLARING for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_exports_the_union_of_the_module_lists():
    union = {name for module in DECLARING for name in module.__all__}
    assert sorted(decompound.__all__) == sorted(union | {"__version__"})
    for module in DECLARING:
        for name in module.__all__:
            assert getattr(decompound, name) is getattr(module, name)


def _unused_imports(path: Path) -> list[str]:
    """The names the module's imports bind and it never reads, except
    __future__ imports and imports on a line marked noqa: F401."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or re.search(r"# noqa:.*F401", lines[node.lineno - 1])):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(decompound.__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []
