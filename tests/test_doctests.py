"""Docstring examples across the package are executable."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import fuchs

MODULES = [importlib.import_module(f"fuchs.{info.name}")
           for info in pkgutil.iter_modules(fuchs.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0
    assert attempted >= 0
