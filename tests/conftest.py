import pytest

from spectral_switch import switching
from spectral_switch.families import all_recipes, run_recipe
from spectral_switch.schemes import SchemeParams, build


@pytest.fixture
def validations(monkeypatch):
    """Spec kinds passed to validate_gm and validate_wqh, one entry per call."""
    calls = []
    for name in ("validate_gm", "validate_wqh"):
        def counted(g, spec, _real=getattr(switching, name)):
            calls.append(type(spec).__name__)
            return _real(g, spec)
        monkeypatch.setattr(switching, name, counted)
    return calls


@pytest.fixture(scope="session")
def corpus_reports():
    """One executed report per desk-scale recipe, shared across the suite."""
    return {r.name: run_recipe(r) for r in all_recipes()}


@pytest.fixture(scope="session")
def k242():
    return build(SchemeParams.parse("Jq{0}(4,2;q=2)"))


@pytest.fixture(scope="session")
def j284():
    return build(SchemeParams.parse("J{2}(8,4)"))


@pytest.fixture(scope="session")
def petersen():
    return build(SchemeParams.parse("J{0}(5,2)"))
