"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import slqt

MODULES = sorted(info.name for info in pkgutil.iter_modules(slqt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"slqt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
