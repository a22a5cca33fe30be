import importlib
import pkgutil

import pytest

import spectral_switch

MODULES = ["spectral_switch"] + [
    f"spectral_switch.{m.name}" for m in pkgutil.iter_modules(spectral_switch.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in __all__ after its definition is deleted breaks
    `from module import *`."""
    mod = importlib.import_module(name)
    missing = [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
    assert not missing, missing
