import pytest

from ptlg import lgexpr


@pytest.fixture
def distribution_calls(monkeypatch):
    """Measured times of every context distribution computed during the test."""
    calls = []
    original = lgexpr.distribution

    def counting(ctx):
        calls.append(ctx.measured_times)
        return original(ctx)

    monkeypatch.setattr(lgexpr, "distribution", counting)
    return calls
