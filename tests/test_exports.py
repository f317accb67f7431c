"""Every exported name resolves: ``grclib.__all__``, the ``__all__`` of each
``grclib.*`` module that has one (the command line module has none), and
``from grclib import *``; and each package name is its home module's
object."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import grclib

MODULES = sorted(m.name for m in pkgutil.iter_modules(grclib.__path__, "grclib."))


@pytest.mark.parametrize("name", ["grclib", *MODULES])
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_every_package_name():
    assert grclib.__all__
    namespace: dict = {}
    exec("from grclib import *", namespace)
    assert set(grclib.__all__) <= namespace.keys()


def test_each_package_name_is_its_home_modules_object():
    homes: dict[str, list] = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            homes.setdefault(export, []).append(module)
    for name in grclib.__all__:
        assert homes.get(name), f"no grclib module lists {name} in its __all__"
        assert all(getattr(grclib, name) is getattr(m, name) for m in homes[name]), name
