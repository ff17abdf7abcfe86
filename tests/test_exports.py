"""Every name a module exports exists: the benchmark's tracer looks up each
__all__ entry with getattr, so a stale export would crash a traced run."""

import importlib
import pkgutil

import pytest

import fdekit

MODULES = [fdekit] + [
    importlib.import_module(f"fdekit.{info.name}")
    for info in pkgutil.iter_modules(fdekit.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
