"""The public API: every exported name resolves, and the package re-exports
only names its modules export."""

import importlib
import inspect
import pkgutil
import sys

import pytest

import fraclattice

MODULES = sorted(f"fraclattice.{m.name}" for m in pkgutil.iter_modules(fraclattice.__path__))


def exported(module) -> set[str]:
    """The module's ``__all__``, or else the public names it defines."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name, obj in vars(module).items()
                 if not name.startswith("_")
                 and getattr(obj, "__module__", None) == module.__name__]
    return set(names)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_only_exported_names():
    public = {name: obj for name, obj in vars(fraclattice).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public
    for name, obj in public.items():
        home = sys.modules[obj.__module__]
        assert name in exported(home), f"{name} is not exported by {home.__name__}"
        assert getattr(home, name) is obj
