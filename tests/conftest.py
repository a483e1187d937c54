import pytest
from hypothesis import settings

from fraclattice import noise, solver

# Every property test draws the same examples on every run, with no example
# database and no per-example deadline; a test sets only its max_examples.
settings.register_profile("fraclattice", derandomize=True, database=None, deadline=None)
settings.load_profile("fraclattice")


@pytest.fixture
def sweep_calls(monkeypatch) -> list:
    """One entry per ``noise.decayed_exp_sweep`` call made during the test."""
    calls, sweep = [], noise.decayed_exp_sweep

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(noise, "decayed_exp_sweep", counted)
    return calls


class LadderCalls(list):
    """``(shape, steps)`` per block stepped, with ``builds``, the shape of each kernel bound."""

    def __init__(self):
        super().__init__()
        self.builds = []


@pytest.fixture
def ladder_calls(monkeypatch) -> LadderCalls:
    """``(site-major state shape, steps)`` per noise block that a ``solver._step_loop``
    kernel steps during the test, and in ``builds`` the state shape of each kernel bound.

    Each block must hold the kernel's state shape at every node, C-contiguous: the starts
    filled in, so that no per-step call broadcasts.
    """
    calls, step_loop = LadderCalls(), solver._step_loop

    def counted(shape, *args):
        calls.builds.append(shape)
        steps = step_loop(shape, *args)

        def counted_steps(v0, w, *rest):
            assert v0.shape == shape and w.shape == (w.shape[0],) + shape
            assert w.flags.c_contiguous
            calls.append((v0.shape, w.shape[0] - 1))
            return steps(v0, w, *rest)

        return counted_steps

    monkeypatch.setattr(solver, "_step_loop", counted)
    return calls
