"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import gblab

MODULES = ["gblab"] + [f"gblab.{m.name}" for m in pkgutil.iter_modules(gblab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
