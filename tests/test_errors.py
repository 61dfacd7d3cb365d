"""The exception surface: one class per kind of failure, each a ValueError
so the CLI turns it into exit 3, and each exported from ``fuchs``."""

from __future__ import annotations

import importlib
import pkgutil

import fuchs

# class name -> defining module
EXCEPTIONS = {
    "PresentationError": "fuchs.presentation",  # malformed text
    "InvalidRing": "fuchs.table",  # constants that define no such ring
    "CapExceeded": "fuchs.caps",  # work beyond a fixed cap
    "HypothesisViolated": "fuchs.numtheory",  # input outside a theorem
}


def _defined_exceptions():
    """(module, class) for every exception class a fuchs module defines."""
    found = []
    for info in pkgutil.walk_packages(fuchs.__path__, "fuchs."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) \
                    and obj.__module__ == module.__name__:
                found.append((module.__name__, obj))
    return found


def test_exactly_the_four_classes_each_defined_once():
    found = _defined_exceptions()
    names = sorted(cls.__name__ for _, cls in found)
    assert names == sorted(EXCEPTIONS)
    for module, cls in found:
        assert module == EXCEPTIONS[cls.__name__], cls


def test_each_is_a_value_error_exported_from_the_package():
    for _, cls in _defined_exceptions():
        assert issubclass(cls, ValueError), cls
        assert cls.__name__ in fuchs.__all__, cls
        assert getattr(fuchs, cls.__name__) is cls
