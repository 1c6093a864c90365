import importlib
import pkgutil

import pytest

import hypmin

MODULES = ["hypmin", *(f"hypmin.{m.name}" for m in pkgutil.iter_modules(hypmin.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its deletion breaks only `import *`
    mod = importlib.import_module(module)
    names = list(getattr(mod, "__all__", ()))
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)
