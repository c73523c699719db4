"""Every public export resolves: each name in the __all__ of lambid and of
each lambid.* module is an attribute of that module."""

import importlib
import pkgutil

import pytest

import lambid

MODULES = ["lambid"] + [f"lambid.{info.name}"
                        for info in pkgutil.iter_modules(lambid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
