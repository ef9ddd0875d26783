import pytest

from morcam import resolvent


@pytest.fixture
def link_phase_calls(monkeypatch):
    """A list that gains one entry per call of morcam.resolvent.link_phases."""
    calls = []
    original = resolvent.link_phases

    def counted(grid, pp):
        calls.append(grid)
        return original(grid, pp)

    monkeypatch.setattr(resolvent, "link_phases", counted)
    return calls
