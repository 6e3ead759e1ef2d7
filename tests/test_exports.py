"""Every name a module exports must exist.

A name deleted from a module but left in its ``__all__`` only fails on
``from module import *``, which nothing in the package runs.
"""

import importlib
import pkgutil

import pytest

import ergharvest

MODULES = [importlib.import_module(f"ergharvest.{info.name}")
           for info in pkgutil.iter_modules(ergharvest.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing
