"""The public API is declared once: each module's __all__, re-exported by the package."""

import importlib
import pkgutil

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
