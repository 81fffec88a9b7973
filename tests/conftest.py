import pytest


@pytest.fixture(autouse=True)
def _default_quad_tolerance(monkeypatch):
    # every quadrature reads ENVDET_QUAD_TOL, so a value exported in the
    # shell would move pinned values and scan hashes; tests that need a
    # tolerance set it themselves
    monkeypatch.delenv("ENVDET_QUAD_TOL", raising=False)
