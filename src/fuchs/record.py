"""Bases of the package's value classes.

Each class writes its own ``__init__``, ``__eq__`` and ``__hash__`` over
its fields; these bases only print it and keep it frozen.  The reprs are
the ``Name(field=value, ...)`` form that the doctests print.
"""

from __future__ import annotations


class Record:
    """Prints as ``Name(field=value, ...)`` over ``_repr_fields``."""

    _repr_fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._repr_fields)
        return f"{self.__class__.__qualname__}({body})"


class Frozen(Record):
    """A record no attribute of which can be assigned or deleted after
    ``__init__``, which sets them through ``object.__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
