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
    """``(start batch shape, steps)`` per ``solver._step_loop`` call made during the test."""
    calls, step_loop = [], solver._step_loop

    def counted(v0, w, *args, **kwargs):
        calls.append((v0.shape, w.shape[0] - 1))
        return step_loop(v0, w, *args, **kwargs)

    monkeypatch.setattr(solver, "_step_loop", counted)
    return calls
