"""Every exported name resolves, so a deleted function cannot linger in an
``__all__`` list, and the lazily loading package exports exactly what its
submodules define."""

import importlib
import json
import pkgutil
import subprocess
import sys
import types

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


def test_each_export_is_its_submodules_object():
    for name in bellscope.__all__:
        if name == "__version__":
            continue
        obj = getattr(bellscope, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"bellscope.{name}")
        else:
            assert obj.__module__.startswith("bellscope.")
            assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_dir_lists_every_export():
    assert set(bellscope.__all__) <= set(dir(bellscope))


def test_star_import_binds_exactly_all():
    code = ("import json; before = set(globals()); from bellscope import *; "
            "print(json.dumps(sorted(set(globals()) - before - {'before'})))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(bellscope.__all__)
