"""Docstring examples across the package are executable."""

from __future__ import annotations

import doctest

import pytest

import fuchs.abelian
import fuchs.finring
import fuchs.numtheory
import fuchs.radical
import fuchs.realize
import fuchs.table
import fuchs.tnlab


@pytest.mark.parametrize("module", [
    fuchs.abelian, fuchs.numtheory, fuchs.radical,
    fuchs.finring, fuchs.realize, fuchs.table, fuchs.tnlab,
])
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0
    assert attempted >= 0
