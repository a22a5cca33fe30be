import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import spectral_switch

MODULES = ["spectral_switch"] + [
    f"spectral_switch.{m.name}" for m in pkgutil.iter_modules(spectral_switch.__path__)
]

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in __all__ after its definition is deleted breaks
    `from module import *`."""
    mod = importlib.import_module(name)
    missing = [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
    assert not missing, missing


def test_every_traced_site_resolves(monkeypatch):
    """perfbench's tracer wraps each (module, attribute) of its SITES and
    stops with an AttributeError on one that is gone."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracing.SITES
               if not callable(getattr(mod, attr, None))]
    assert not missing, missing
