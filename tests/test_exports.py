"""Every exported name resolves, so a deleted function cannot linger in an
``__all__`` list."""

import importlib
import pkgutil

import pytest

import bellscope

MODULES = ["bellscope"] + [f"bellscope.{info.name}"
                           for info in pkgutil.iter_modules(bellscope.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [x for x in exported if not hasattr(module, x)] == []
    assert len(set(exported)) == len(exported)
