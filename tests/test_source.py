"""Static checks over the package source."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rsvp"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import in ``tree`` that no expression reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path\nimport numpy as np\nfrom a import b, c as d\n"
        "def f(x: b) -> None:\n    return np.zeros(1)\n"
    )
    assert unused_imports(tree) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert MODULES
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def tensor_reads(tree: ast.Module) -> list:
    """Line numbers of every ``<expr>.tensor`` attribute access in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "tensor"]


def test_tensor_detector_finds_reads_and_writes():
    tree = ast.parse("x = p.tensor\np.tensor.data = 1\ntensor = property(lambda s: s)\n")
    assert tensor_reads(tree) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parameters_go_to_autodiff_without_tensor_wrapper(path):
    # a Parameter is a Tensor: the package passes it to autodiff as it is
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert tensor_reads(tree) == []


def foreign_imports(tree: ast.Module) -> list:
    """Top-level packages that ``tree`` imports from outside the package,
    the standard library and NumPy."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(n for n in names if n != "numpy" and n not in sys.stdlib_module_names)


def test_foreign_import_detector():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from . import autodiff\nfrom .text import Vocab\n"
        "from pandas.api import types\nimport torch.nn\n"
    )
    assert foreign_imports(tree) == ["pandas", "torch"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_runtime_needs_only_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert foreign_imports(tree) == []
