"""The package's record classes: how each one prints, compares, hashes and
refuses assignment.  Doctests and the ``str`` of unnamed rings print the
reprs, and the module caches key on the hashes, so each class is pinned
here field by field."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fuchs
from fuchs.abelian import FgAbGroup, FinAbGroup
from fuchs.finring import FinCommRing, LocalData, NotLocal
from fuchs.numtheory import Factorization, PsFactor
from fuchs.radical import RadicalRing, SmallTheoremReport
from fuchs.realize import GeClass, NotInClass
from fuchs.record import Frozen, Record
from fuchs.tnlab import (CycloBase, PrimePowerIdealQuotient, TnModel,
                         TorsionIdeal, TorsionUnitData)
from fuchs.verdict import Verdict

_ONE, _ZERO = CycloBase(1).one(), CycloBase(1).zero()


def case(cls, fields, text, *, differ, hidden=(), variant=None,
         frozen=True, hashable=True):
    """One record class: ``fields`` builds an instance (in declaration
    order, so also the repr order), ``text`` is its repr, ``differ``
    overrides a compared field, ``variant`` overrides only the fields in
    ``hidden``, which equality and hashing ignore."""
    return pytest.param(dict(cls=cls, fields=fields, text=text, differ=differ,
                             hidden=hidden, variant=variant, frozen=frozen,
                             hashable=hashable), id=cls.__name__)


CASES = [
    case(FinAbGroup, {"factors": ((2, 1, 1), (3, 2, 1))},
         "FinAbGroup(factors=((2, 1, 1), (3, 2, 1)))",
         differ={"factors": ((2, 2, 1),)}),
    case(FgAbGroup, {"torsion": FinAbGroup(((2, 1, 1),)), "free_rank": 2},
         "FgAbGroup(torsion=FinAbGroup(factors=((2, 1, 1),)), free_rank=2)",
         differ={"free_rank": 3}),
    case(Factorization, {"pairs": ((2, 3), (5, 1))},
         "Factorization(pairs=((2, 3), (5, 1)))",
         differ={"pairs": ((2, 1),)}),
    case(PsFactor, {"value": 7, "kind": "prime_power_minus_one", "p": 2,
                    "exp": 3},
         "PsFactor(value=7, kind='prime_power_minus_one', p=2, exp=3)",
         differ={"value": 3, "exp": 2}),
    case(FinCommRing, {"basis_orders": (4,), "mult": ((1,),), "one": (1,),
                       "name": "Z/4Z"},
         "FinCommRing(basis_orders=(4,), mult=((1,),), one=(1,), "
         "name='Z/4Z')",
         differ={"basis_orders": (5,)}, hidden=("name",),
         variant={"name": ""}),
    case(LocalData, {"p": 2, "lam": 1, "maximal_ideal": ((0,), (2,)),
                     "residue_size": 2, "units": ((1,), (3,))},
         "LocalData(p=2, lam=1, maximal_ideal=((0,), (2,)), residue_size=2)",
         differ={"lam": 2}, hidden=("units",), variant={"units": ((1,),)}),
    case(NotLocal, {"idempotent": (1, 0)}, "NotLocal(idempotent=(1, 0))",
         differ={"idempotent": (0, 1)}),
    case(RadicalRing, {"p": 2, "exponents": (2,), "mult": ((2,),),
                       "name": "2Z/8Z"},
         "RadicalRing(p=2, exponents=(2,), mult=((2,),), name='2Z/8Z')",
         differ={"mult": ((0,),)}, hidden=("name",), variant={"name": ""}),
    case(SmallTheoremReport, {"p": 3, "k": 1, "entries": []},
         "SmallTheoremReport(p=3, k=1, entries=[])",
         differ={"k": 2}, frozen=False),
    case(GeClass, {"torsion": FinAbGroup(((2, 3, 1), (41, 1, 1))), "eps": 3,
                   "bad_primes": (),
                   "good_primes": ((41, FinAbGroup(((41, 1, 1),)), 1),)},
         "GeClass(torsion=FinAbGroup(factors=((2, 3, 1), (41, 1, 1))), "
         "eps=3, bad_primes=(), good_primes=((41, FinAbGroup(factors="
         "((41, 1, 1),)), 1),))",
         differ={"eps": 4}),
    case(NotInClass, {"prime": 2, "reason": "Sylow 2-subgroup is not cyclic"},
         "NotInClass(prime=2, reason='Sylow 2-subgroup is not cyclic')",
         differ={"prime": None}),
    case(TnModel, {"conductor": 1, "free_names": ("u",),
                   "tors_names": ("y",), "tors_orders": (3,),
                   "scalar_action": ((1,),),
                   "mult": (((_ONE,), (0,)), ((_ZERO,), (1,)),
                            ((_ZERO,), (0,))),
                   "name": "Z x Z/3"},
         "TnModel(conductor=1, free_names=('u',), tors_names=('y',), "
         "tors_orders=(3,), scalar_action=((1,),), mult=((((1,),), (0,)), "
         "(((0,),), (1,)), (((0,),), (0,))), name='Z x Z/3')",
         differ={"tors_orders": (5,)}, hidden=("name",),
         variant={"name": ""}),
    case(TorsionIdeal, {"components": (RadicalRing(3, (1,), ((0,),)),)},
         "TorsionIdeal(components=(RadicalRing(p=3, exponents=(1,), "
         "mult=((0,),), name=''),))",
         differ={"components": ()}),
    case(TorsionUnitData, {"one_plus_n": FinAbGroup(()),
                           "b_tors": FinAbGroup(()), "a_tors": FinAbGroup(())},
         "TorsionUnitData(one_plus_n=FinAbGroup(factors=()), "
         "b_tors=FinAbGroup(factors=()), a_tors=FinAbGroup(factors=()))",
         differ={"a_tors": FinAbGroup(((2, 1, 1),))}),
    case(CycloBase, {"conductor": 4}, "CycloBase(conductor=4)",
         differ={"conductor": 8}),
    case(PrimePowerIdealQuotient, {"conductor": 4, "q": 3,
                                   "factor": (1, 0, 1), "b": 1},
         "PrimePowerIdealQuotient(conductor=4, q=3, factor=(1, 0, 1), b=1)",
         differ={"b": 2}),
    case(Verdict, {"kind": "realisable", "theorem": "t", "query": "Z/2Z",
                   "ring_class": "finite", "certificate": {"a": 1},
                   "obstruction": None, "gap": None, "checked": True},
         "Verdict(kind='realisable', theorem='t', query='Z/2Z', "
         "ring_class='finite', certificate={'a': 1}, obstruction=None, "
         "gap=None, checked=True)",
         differ={"query": "Z/4Z"}, hidden=("checked",),
         variant={"checked": False}, hashable=False),
]


def _build(c, cls=None, **override):
    return (cls or c["cls"])(**{**c["fields"], **override})


def _record_classes():
    """Every Record subclass that a ``fuchs`` module defines."""
    found = set()
    for info in pkgutil.iter_modules(fuchs.__path__):
        module = importlib.import_module(f"fuchs.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, Record)
                     and obj.__module__ == module.__name__
                     and obj not in (Record, Frozen))
    return found


def test_every_record_class_is_pinned():
    pinned = [c.values[0]["cls"] for c in CASES]
    assert len(pinned) == len(set(pinned))
    assert _record_classes() == set(pinned)


def test_identity_comes_only_from_the_base():
    for cls in _record_classes():
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
        assert set(cls._uncompared) <= set(cls._repr_fields), cls


@pytest.mark.parametrize("c", CASES)
def test_repr(c):
    assert repr(_build(c)) == c["text"]


@pytest.mark.parametrize("c", CASES)
def test_positional_construction_matches_keywords(c):
    x = _build(c)
    y = c["cls"](*c["fields"].values())
    assert repr(y) == repr(x)
    for name, value in c["fields"].items():
        assert getattr(y, name) == value


@pytest.mark.parametrize("c", CASES)
def test_equality_over_the_compared_fields(c):
    x, y = _build(c), _build(c)
    assert x == y and not x != y
    assert _build(c, **c["differ"]) != x
    if c["variant"] is not None:
        z = _build(c, **c["variant"])
        assert z == x
        for name in c["hidden"]:
            assert getattr(z, name) != getattr(x, name)


@pytest.mark.parametrize("c", CASES)
def test_hash_over_the_compared_fields(c):
    x = _build(c)
    if not c["frozen"]:
        assert c["cls"].__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
        return
    key = tuple(getattr(x, f) for f in c["fields"] if f not in c["hidden"])
    if not c["hashable"]:  # a payload dict is part of the key
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == hash(key) == hash(_build(c))
    if c["variant"] is not None:
        assert hash(_build(c, **c["variant"])) == hash(x)


@pytest.mark.parametrize("c", CASES)
def test_no_equality_across_classes(c):
    x = _build(c)
    values = tuple(c["fields"].values())
    assert x.__eq__(values) is NotImplemented
    assert x != values and x != object()
    # a subclass instance with the same fields is a different value
    sub = type("Sub" + c["cls"].__name__, (c["cls"],), {})
    assert _build(c, cls=sub) != x and x != _build(c, cls=sub)


def test_same_field_values_in_different_classes_differ():
    empty = [FinAbGroup(()), Factorization(()), NotLocal(()), TorsionIdeal(())]
    for i, a in enumerate(empty):
        for b in empty[i + 1:]:
            assert a != b and b != a


@pytest.mark.parametrize("c", CASES)
def test_assignment_and_deletion(c):
    x = _build(c)
    name, value = next(iter(c["differ"].items()))
    if c["frozen"]:
        for field in c["fields"]:
            with pytest.raises(AttributeError):
                setattr(x, field, value)
            with pytest.raises(AttributeError):
                delattr(x, field)
        with pytest.raises(AttributeError):
            x.not_a_field = 1
        assert repr(x) == c["text"]
    else:
        setattr(x, name, value)
        assert getattr(x, name) == value
        delattr(x, name)
        assert not hasattr(x, name)


def test_defaults():
    T = FinAbGroup(((2, 1, 1),))
    assert FinAbGroup().factors == ()
    assert FgAbGroup(T).free_rank == 0
    assert FinCommRing((4,), ((1,),), (1,)).name == ""
    assert RadicalRing(2, (1,), ((0,),)).name == ""
    v = Verdict("unknown", "t", "q", "any", gap={})
    assert (v.certificate, v.obstruction, v.checked) == (None, None, False)
    a, b = SmallTheoremReport(3, 1), SmallTheoremReport(3, 1)
    assert a.entries == [] and a.entries is not b.entries
