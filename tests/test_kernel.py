"""The compiled step kernel's loader and packaging.

The kernel loads wherever ``cc`` builds it.  Wherever it cannot be built or loaded, the
loader falls back to the numpy kernel with no exception, and runs come out bit for bit the
same.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fraclattice import solver
from fraclattice.cli import run, validate_config
from fraclattice.fbm import TimeGrid
from fraclattice.lattice import LatticeParams, LatticeVector, NonlinearitySpec
from fraclattice.noise import build_noise_field
from fraclattice.solver import SolverConfig, cocycle_map
from kernels import KERNELS, step_kernel

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
needs_cc = pytest.mark.skipif("compiled" not in KERNELS, reason="no compiled kernel here")


@pytest.fixture
def source(tmp_path, monkeypatch):
    """A copy of the kernel's source in an empty directory, so that its cache is empty, with
    the loader's memo untried."""
    copy = tmp_path / "src" / "_kernel.c"
    copy.parent.mkdir()
    copy.write_bytes(solver._KERNEL_SOURCE.read_bytes())
    monkeypatch.setattr(solver, "_KERNEL_SOURCE", copy)
    monkeypatch.setattr(solver, "_KERNEL", solver._UNTRIED)
    return copy


def loaded_kernel_steps_bit_for_bit():
    """Steps a batch through the kernel ``solver._kernel`` loads, asserts that it equals the
    numpy kernel's run bit for bit, and returns what was loaded."""
    params = LatticeParams(coupling=1.0, damping=1.0, forcing=LatticeVector.zeros(4),
                           noise_amp=LatticeVector.from_support(4, {0: 0.8, -2: 0.5}),
                           half_width=4)
    field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=50), 3)
    cfg, cubic = SolverConfig(dt=0.01, t_end=0.5), NonlinearitySpec.cubic(1.0, 1.0)
    starts = np.random.default_rng(1).standard_normal((3, 9))
    ends = cocycle_map(0.5, field, starts, params, cubic, cfg)
    loaded = solver._KERNEL
    with step_kernel("numpy"):
        reference = cocycle_map(0.5, field, starts, params, cubic, cfg)
    assert ends.tobytes() == reference.tobytes()
    return loaded


def test_compiled_kernel_loads_where_cc_runs():
    assert ("compiled" in KERNELS) == (shutil.which("cc") is not None)


def test_package_data_ships_the_compiled_source():
    tomllib = pytest.importorskip("tomllib")
    data = tomllib.loads(PYPROJECT.read_text())["tool"]["setuptools"]["package-data"]
    assert solver._KERNEL_SOURCE.name in data["fraclattice"]
    assert solver._KERNEL_SOURCE.parent.name == "fraclattice"


def test_unwritable_cache_falls_back(source):
    # a file holds the cache directory's path, so that neither the directory nor a library
    # in it can be written, whoever runs the suite
    (source.parent / "__pycache__").write_text("not a directory")
    assert loaded_kernel_steps_bit_for_bit() is None
    assert sorted(p.name for p in source.parent.iterdir()) == ["__pycache__", "_kernel.c"]


def test_no_compiler_falls_back(source, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert loaded_kernel_steps_bit_for_bit() is None
    assert list((source.parent / "__pycache__").iterdir()) == []


@pytest.mark.parametrize("compiler", [pytest.param(True, marks=needs_cc), False],
                         ids=["cc", "no-cc"])
def test_garbage_in_the_cache_is_built_anew_or_falls_back(source, tmp_path, monkeypatch,
                                                           compiler):
    # the library's cache name is the sha256 of the source and the command that builds it
    key = hashlib.sha256(source.read_bytes() + " ".join(solver._CC).encode()).hexdigest()
    library = source.parent / "__pycache__" / f"_kernel-{key}.so"
    library.parent.mkdir()
    library.write_bytes(b"not a shared library")
    if not compiler:
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert (loaded_kernel_steps_bit_for_bit() is not None) == compiler
    assert library.read_bytes().startswith(b"\x7fELF") == compiler
    assert list(library.parent.iterdir()) == [library]


@needs_cc
def test_two_processes_build_one_library(source):
    # both miss the empty cache and build at once; each loads a whole library, and the
    # cache is left with that one library and no temporary file
    code = ("import sys; from pathlib import Path; from fraclattice import solver; "
            "solver._KERNEL_SOURCE = Path(sys.argv[1]); print(solver._kernel() is not None)")
    env = os.environ | {"PYTHONPATH": str(Path(solver.__file__).parents[1])}
    runs = [subprocess.Popen([sys.executable, "-c", code, str(source)], env=env,
                             stdout=subprocess.PIPE, text=True) for _ in range(2)]
    assert [run.communicate(timeout=120)[0] for run in runs] == ["True\n"] * 2
    [library] = (source.parent / "__pycache__").iterdir()
    assert library.name.startswith("_kernel-") and library.suffix == ".so"


def test_import_loads_nothing():
    # the loader runs at the first step, not at import, and imports subprocess only to build
    code = ("import sys, fraclattice.cli; from fraclattice import solver; "
            "print(solver._KERNEL is solver._UNTRIED, 'subprocess' in sys.modules)")
    env = os.environ | {"PYTHONPATH": str(Path(solver.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout == "True False\n"


def test_a_run_of_no_step_loads_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_KERNEL", solver._UNTRIED)
    monkeypatch.setattr(solver, "_load_kernel", lambda: pytest.fail("the kernel was loaded"))
    manifest = run(validate_config({"experiment": {"name": "ou"},
                                    "output_dir": str(tmp_path / "out")}))
    assert manifest.all_passed and manifest.kernel is None
    assert solver._KERNEL is solver._UNTRIED
