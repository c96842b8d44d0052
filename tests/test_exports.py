"""Every name a module lists in ``__all__`` exists, so a deleted function cannot stay listed."""

import importlib
import pkgutil

import pytest

import lipmaps

MODULES = [
    info.name
    for info in pkgutil.iter_modules(lipmaps.__path__, "lipmaps.")
    if hasattr(importlib.import_module(info.name), "__all__")
]


def test_modules_found():
    assert {"lipmaps.asplund", "lipmaps.morphology"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from {name} import *", {})
