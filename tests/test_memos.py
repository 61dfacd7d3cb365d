"""The process-level memos of pure functions.

Each memo must return what its uncached function returns, must not keep an
exception, and must be bounded: the package keeps no cache that grows
without limit.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import fuchs
from fuchs.abelian import FinAbGroup, parse_group
from fuchs.caps import CapExceeded
from fuchs.numtheory import factorize, is_prime
from fuchs.realize import _construction_torsion_units

BIG = 2 ** 64


def _fuchs_modules():
    return [importlib.import_module(f"fuchs.{info.name}")
            for info in pkgutil.iter_modules(fuchs.__path__)]


def _lru_caches():
    """Every lru_cache in the package, module functions and methods, by
    qualified name."""
    out = {}
    for module in _fuchs_modules():
        spaces = [vars(module)]
        spaces += [vars(obj) for obj in vars(module).values()
                   if isinstance(obj, type) and obj.__module__ == module.__name__]
        for space in spaces:
            for obj in space.values():
                if isinstance(obj, (staticmethod, classmethod)):
                    obj = obj.__func__
                if isinstance(obj, functools._lru_cache_wrapper):
                    out[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return out


def test_every_cache_of_the_package_is_bounded():
    caches = _lru_caches()
    for name in ("fuchs.numtheory.factorize", "fuchs.numtheory.is_prime",
                 "fuchs.abelian.parse_group",
                 "fuchs.realize._construction_torsion_units"):
        assert name in caches
    unbounded = [name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_every_cache_is_named_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    start = readme.index("These are all the process-level caches")
    paragraph = readme[start:readme.index("\n\n", start)]
    missing = [name for name in _lru_caches()
               if f"`{name.removeprefix('fuchs.')}`" not in paragraph]
    assert missing == []


def _literal(n: int) -> str:
    return f"Z/{n}Z x Z^{n % 3}"


@pytest.mark.parametrize("cached, argument", [
    (factorize, lambda n: n),
    (is_prime, lambda n: n),
    (parse_group, _literal),
])
def test_memo_equals_the_uncached_function(cached, argument):
    cached.cache_clear()
    for n in [*range(1, 5001), BIG]:
        expected = cached.__wrapped__(argument(n))
        assert cached(argument(n)) == expected     # miss (or evicted)
        assert cached(argument(n)) == expected     # hit
    assert cached.cache_info().currsize <= cached.cache_parameters()["maxsize"]


def test_is_prime_memo_at_the_edges():
    for n in (-1, 0, 1, BIG + 1, 2 ** 61 - 1):
        assert is_prime(n) == is_prime.__wrapped__(n)
        assert is_prime(n) == is_prime.__wrapped__(n)


@pytest.mark.parametrize("call, bad, error", [
    (factorize, 0, ValueError),
    (factorize, BIG + 1, CapExceeded),
    (parse_group, "Z/0Z", ValueError),
    (parse_group, f"Z/{BIG + 1}Z", CapExceeded),
])
def test_exceptions_are_not_cached(call, bad, error):
    call.cache_clear()
    for _ in range(3):
        with pytest.raises(error):
            call(bad)
    assert call.cache_info().currsize == 0


@pytest.mark.parametrize("k, orders", [(2, [3]), (2, [27]), (4, [9, 9]),
                                       (2, [3, 5]), (8, [17])])
def test_construction_witness_memo_equals_a_rebuild(k, orders):
    H = FinAbGroup.from_orders(orders)
    expected = _construction_torsion_units.__wrapped__(k, H)
    assert _construction_torsion_units(k, H) == expected
    assert _construction_torsion_units(k, H) == expected
