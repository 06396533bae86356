"""The package surface: each module's __all__, republished by walshdsp."""

from types import ModuleType

import pytest

import walshdsp
from walshdsp import circuits, filters, signals, simulator, transforms, verification

MODULES = (circuits, filters, signals, simulator, transforms, verification)


def star_import(module_name: str) -> dict:
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    del namespace["__builtins__"]
    return namespace


def test_package_star_import_binds_exactly_its_all():
    namespace = star_import("walshdsp")
    assert sorted(namespace) == sorted(walshdsp.__all__)
    assert len(set(walshdsp.__all__)) == len(walshdsp.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_module_exports_what_it_defines(module):
    # a star import hands out the module's list and no import of its own
    assert sorted(star_import(module.__name__)) == sorted(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        if callable(value):
            assert value.__module__ == module.__name__, name
        assert getattr(walshdsp, name) is value, name


def test_package_all_is_the_module_lists_plus_version():
    assert walshdsp.__all__ == ["__version__", *(name for module in MODULES for name in module.__all__)]
