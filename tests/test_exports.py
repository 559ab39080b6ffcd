"""The public names of the package and its fixtures module, the modules
that define them, and the modules that each import loads."""

import ast
import os
import subprocess
import sys
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


def _loaded_by(statement):
    """The gradedrel modules that a fresh interpreter holds after running
    `statement`, which fails the test if it raises."""
    code = f"import sys\n{statement}\nprint(*(m for m in sys.modules if m.startswith('gradedrel')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(gradedrel.__file__).parents[1])},
        check=True,
    )
    return set(proc.stdout.split())


def test_bare_import_loads_no_submodule():
    assert _loaded_by("import gradedrel") == {"gradedrel"}


def test_submodule_import_loads_only_its_own_imports():
    leaves = {"errors", "pointset", "relations", "formats"}
    assert _loaded_by("import gradedrel.formats") == {"gradedrel"} | {
        f"gradedrel.{m}" for m in leaves
    }


def test_first_use_of_a_name_loads_its_module_and_binds_the_value():
    loaded = _loaded_by(
        "import gradedrel\n"
        "assert 'parse_system' not in vars(gradedrel)\n"
        "from gradedrel import parse_system\n"
        "assert vars(gradedrel)['parse_system'] is parse_system"
    )
    assert "gradedrel.formats" in loaded and "gradedrel.hulls" not in loaded


def test_submodule_resolves_after_a_bare_import():
    loaded = _loaded_by("import gradedrel\nassert gradedrel.hulls.__name__ == 'gradedrel.hulls'")
    assert "gradedrel.hulls" in loaded


def test_unknown_name_is_an_attribute_error():
    message = "^module 'gradedrel' has no attribute 'no_such_name'$"
    with pytest.raises(AttributeError, match=message):
        gradedrel.no_such_name


def test_dir_lists_every_exported_name():
    # in a fresh interpreter, where no name is bound yet, and in this one
    _loaded_by("import gradedrel\nassert set(gradedrel.__all__) <= set(dir(gradedrel))")
    assert set(gradedrel.__all__) <= set(dir(gradedrel))
