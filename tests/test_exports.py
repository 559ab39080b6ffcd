"""The public names of the package and its fixtures module."""

import pytest

import gradedrel
import gradedrel.fixtures

MODULES = [gradedrel, gradedrel.fixtures]
IDS = [m.__name__ for m in MODULES]


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_star_import_binds_exactly_all(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
    for name, value in namespace.items():
        assert value is getattr(module, name)
