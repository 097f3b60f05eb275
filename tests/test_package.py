"""Every exported name resolves, so a stale export cannot outlive its code."""

import ast
import importlib
from pathlib import Path

import pytest

import upkolmo

MODULES = ["chi", "cli", "exprdsl", "io", "kernels", "problem", "scheme",
           "solver", "verify"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"upkolmo.{name}")
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert missing == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(upkolmo.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 30
    assert [n for n in names if not hasattr(upkolmo, n)] == []
