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


@pytest.fixture
def ladder_calls(monkeypatch) -> list:
    """``(site-major state shape, steps)`` per ``solver._step_loop`` call made during the test.

    Each call's noise block must hold the state's shape at every node, C-contiguous: the
    starts filled in, so that no per-step call broadcasts.
    """
    calls, step_loop = [], solver._step_loop

    def counted(v0, w, *args, **kwargs):
        assert w.shape == (w.shape[0],) + v0.shape and w.flags.c_contiguous
        calls.append((v0.shape, w.shape[0] - 1))
        return step_loop(v0, w, *args, **kwargs)

    monkeypatch.setattr(solver, "_step_loop", counted)
    return calls
