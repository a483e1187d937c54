"""The public API: every exported name resolves, the package re-exports
only names its modules export, and the test-only oracles stay out of it."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import fraclattice
import oracles

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


def test_oracles_stay_out_of_the_package():
    modules = [fraclattice] + [importlib.import_module(name) for name in MODULES]
    assert [(module.__name__, name) for module in modules for name in oracles.__all__
            if hasattr(module, name)] == []
    test_modules = {"tests"} | {path.stem for path in Path(oracles.__file__).parent.glob("*.py")}
    for path in Path(fraclattice.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.partition(".")[0]]
            else:
                continue
            assert test_modules.isdisjoint(roots), f"{path.name} imports {roots}"


def test_one_stepping_driver():
    # forward runs and pullbacks alike step through solver._step_rows, which alone
    # reads the noise and calls the step loop; a top-level def owns its nested ones
    uses = []
    for path in sorted(Path(fraclattice.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                name = (node.name if isinstance(node, ast.alias)
                        else getattr(node, "id", getattr(node, "attr", None)))
                if name in ("_step_loop", "_read_noise"):
                    uses.append((name, owner))
    assert sorted(uses) == [("_read_noise", "solver._step_rows"),
                            ("_step_loop", "solver._step_rows")]
