"""Bases of the package's value classes.

Each class writes its own ``__init__``; these bases print it, compare and
hash it, and keep it frozen.  The reprs are the ``Name(field=value, ...)``
form that the doctests print.

The identity rule: a record's key is the tuple of its ``_repr_fields``
minus its ``_uncompared`` ones.  Two records are equal when they are
instances of the same class with equal keys; a ``Frozen`` record hashes as
its key, and a mutable ``Record`` is unhashable.  A ring's ``name`` is
printed but not compared:

>>> from fuchs.finring import FinCommRing
>>> named = FinCommRing((4,), ((1,),), (1,), "Z/4Z")
>>> named == FinCommRing((4,), ((1,),), (1,))
True
>>> hash(named) == hash(((4,), ((1,),), (1,)))
True
"""

from __future__ import annotations

# sets an attribute of a Frozen record inside its __init__
_set = object.__setattr__


class Record:
    """Prints as ``Name(field=value, ...)`` over ``_repr_fields`` and
    compares over those fields minus ``_uncompared``."""

    _repr_fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._repr_fields)
        return f"{self.__class__.__qualname__}({body})"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._repr_fields
                     if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented


class Frozen(Record):
    """A record no attribute of which can be assigned or deleted after
    ``__init__``, which sets them through ``_set``; it hashes as its key."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
