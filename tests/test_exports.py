"""The public names of the package and its fixtures module, and the
modules that define them."""

import ast
from pathlib import Path

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


def test_self_map_is_one_object_in_every_module():
    for module in (gradedrel.dynamics, gradedrel.fixtures, gradedrel.formats):
        assert module.SelfMap is gradedrel.pointset.SelfMap is gradedrel.SelfMap
    for module in (gradedrel.dynamics, gradedrel.fixtures):
        assert module.identity_map is gradedrel.pointset.identity_map is gradedrel.identity_map


@pytest.mark.parametrize(
    "module, allowed",
    [("pointset", {"errors"}), ("formats", {"errors", "pointset", "relations"})],
)
def test_leaf_modules_import_no_analysis_layer(module, allowed):
    # formats reads and writes maps without dynamics, hulls or semimetric
    tree = ast.parse(Path(gradedrel.__file__).with_name(f"{module}.py").read_text())
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert imported <= allowed
