"""The public API: every exported name resolves, the package re-exports
only names its modules export, and the test-only oracles stay out of it."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclattice
import oracles
from fraclattice import solver
from fraclattice.attractor import random_equilibrium
from fraclattice.fbm import TimeGrid
from fraclattice.lattice import LatticeParams, LatticeVector, NonlinearitySpec
from fraclattice.noise import build_noise_field
from fraclattice.solver import SolverConfig, cocycle_map

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


def uses_of(*names: str) -> list[tuple[str, str]]:
    """(name, top-level def) of every use of ``names`` in the package, imports included;
    a top-level def owns its nested ones."""
    uses = []
    for path in sorted(Path(fraclattice.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                name = (node.name if isinstance(node, ast.alias)
                        else getattr(node, "id", getattr(node, "attr", None)))
                if name in names:
                    uses.append((name, owner))
    return sorted(uses)


def test_one_stepping_driver():
    # forward runs and pullbacks alike step through solver._step_rows, which alone
    # reads the noise and calls the step loop
    assert uses_of("_step_loop", "_read_noise") == [("_read_noise", "solver._step_rows"),
                                                    ("_step_loop", "solver._step_rows")]


def test_one_step_kernel():
    # one kernel steps every kind, boundary and scheme, reading the drift's remainder from
    # the spec, which alone holds the cubic's coefficient: no second drift in the solver
    assert uses_of("_drift", "remainder_into") == []
    assert {owner for _, owner in uses_of("remainder")} == {"lattice.NonlinearitySpec",
                                                           "solver._step_loop"}
    assert {owner for _, owner in uses_of("_neg_b")} == {"lattice.NonlinearitySpec"}


def test_one_anchor_per_run():
    # a run reads its noise re-anchored at its own start node, and the noise shift
    # is the field shift of the reference oracles alone
    assert list(inspect.signature(solver._read_noise).parameters) == [
        "field", "j", "local", "m"]
    assert list(inspect.signature(solver._step_rows).parameters) == [
        "rows", "field", "starts", "params", "spec", "config", "collect"]
    assert uses_of("shifted") == [] and not hasattr(TimeGrid, "shifted")


def test_one_derivation_per_constant():
    # the spec alone derives the cubic's growth coefficient, and the OU growth bound is
    # read by the tail bound, the ou run's growth check and the absorbing radius's tail
    assert uses_of("_cubic_growth_coef") == [("_cubic_growth_coef", "lattice.NonlinearitySpec")]
    assert uses_of("growth_bound") == [("growth_bound", "attractor.absorbing_radius"),
                                       ("growth_bound", "cli._run_ou"),
                                       ("growth_bound", "noise.OUProcess")]


def test_one_owner_per_shared_rule():
    # the plans count a stepping batch with the driver's own list of the runs it steps
    # and check its step with the driver's own stability rule, and the OU tail check
    # reads the growth law of the OU growth bound
    assert uses_of("_runs") == [("_runs", "cli._work_check"), ("_runs", "solver._step_rows")]
    assert uses_of("_stable_step") == [
        ("_stable_step", "cli._plan_equilibrium"), ("_stable_step", "cli._plan_forward"),
        ("_stable_step", "cli._plan_ladder"), ("_stable_step", "solver._step_rows")]
    assert uses_of("_growth_shape") == [("_growth_shape", "noise.OUProcess"),
                                        ("_growth_shape", "noise._ou_window")]


PARAMS = LatticeParams(coupling=1.0, damping=1.0, forcing=LatticeVector.zeros(2),
                       noise_amp=LatticeVector.from_support(2, {0: 0.5}), half_width=2)
CUBIC = NonlinearitySpec.cubic(1.0, 1.0)


def test_the_driver_owns_the_starts():
    # _step_rows checks and shapes every start it steps; cocycle_map checks only
    # the start that its t = 0 identity hands back
    assert uses_of("_start_values") == [("_start_values", "solver._step_rows"),
                                        ("_start_values", "solver.cocycle_map")]
    field = build_noise_field(PARAMS, TimeGrid(0.01, 10), 0)
    config = SolverConfig(0.01, 0.1)
    for t in (0.0, 0.05):
        for bad in (LatticeVector.zeros(3), np.zeros((2, 7)), np.zeros(5)):
            with pytest.raises(ValueError, match="widths differ"):
                cocycle_map(t, field, bad, PARAMS, CUBIC, config)


def test_random_equilibrium_stacks_its_starts():
    assert "np.stack([start.values, verify_start.values])" in inspect.getsource(
        random_equilibrium)
    field = build_noise_field(PARAMS, TimeGrid(0.01, 300, -200), 0)
    good, wide = LatticeVector.zeros(2), LatticeVector.zeros(3)
    for start, verify_start in ((good, wide), (wide, good), (wide, wide)):
        with pytest.raises(ValueError, match="widths differ"):
            random_equilibrium(field, PARAMS, CUBIC, SolverConfig(0.01, 1.0), start=start,
                               verify_start=verify_start, initial_horizon=0.5)
