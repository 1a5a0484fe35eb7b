"""Every name a module exports through __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import imdsec

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(imdsec.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"imdsec.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
