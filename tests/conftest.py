import pytest

from fraclattice import noise


@pytest.fixture
def sweep_calls(monkeypatch) -> list:
    """One entry per ``noise.decayed_exp_sweep`` call made during the test."""
    calls, sweep = [], noise.decayed_exp_sweep

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(noise, "decayed_exp_sweep", counted)
    return calls
