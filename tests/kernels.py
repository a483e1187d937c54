"""The step kernels a test can run on: the compiled one, where it builds, and the numpy one,
its oracle, each chosen through ``solver._KERNEL``, the loader's memo."""

from __future__ import annotations

import contextlib

from fraclattice import solver

_COMPILED = solver._kernel()

#: "compiled" where ``solver._kernel`` loads the compiled kernel, and "numpy".
KERNELS = ("compiled", "numpy") if _COMPILED is not None else ("numpy",)


@contextlib.contextmanager
def step_kernel(name: str):
    """Inside, every ``solver._step_loop`` bound steps through the kernel ``name``."""
    saved = solver._KERNEL
    solver._KERNEL = _COMPILED if name == "compiled" else None
    try:
        yield
    finally:
        solver._KERNEL = saved
