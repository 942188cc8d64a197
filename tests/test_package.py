"""Package surface: every exported name exists, and who may use the stencil weights."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gblab

MODULES = ["gblab"] + [f"gblab.{m.name}" for m in pkgutil.iter_modules(gblab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_only_geometry_references_the_stencil_weights():
    # the stencil's offsets, weights and reach belong to geometry._jet_plan
    owned = {"_diff_weights", "_central_diff"}
    users = set()
    for path in Path(gblab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else set())
            if names & owned:
                users.add(path.name)
    assert users == {"geometry.py"}
