"""Structure-constant rings: the arithmetic shared by radical and unital rings.

A commutative ring of rank r is stored as the additive orders of its basis
x_1, ..., x_r and, for every pair i <= j, the coordinate vector of
x_i * x_j, flattened row by row.  :class:`TableRing` turns such a table into
element arithmetic, spans and the checks every table must pass;
``RadicalRing`` and ``FinCommRing`` add their own invariants on top.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd, prod

from .abelian import FinAbGroup
from . import presentation


class InvalidRing(ValueError):
    pass


def table_mul(orders, mult, x, y):
    """Product of two coordinate vectors under the table ``mult``."""
    r = len(orders)
    acc = [0] * r
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            lo, hi = (i, j) if i <= j else (j, i)
            ab = a * b
            for m, v in enumerate(mult[lo * r - lo * (lo - 1) // 2 + hi - lo]):
                if v:
                    acc[m] += ab * v
    return tuple(v % n for v, n in zip(acc, orders))


def associators(orders, mult):
    """Yield ((a, b, c), (x_a x_b) x_c - x_a (x_b x_c)) for a < c, all b, in
    lexicographic order.  For a commutative table these decide associativity:
    the associator is antisymmetric in a and c, so no earlier triple fails."""
    r = len(orders)
    basis = [tuple(int(m == i) for m in range(r)) for i in range(r)]

    def constant(i, j):
        lo = min(i, j)
        return mult[lo * r - lo * (lo - 1) // 2 + abs(i - j)]

    for a in range(r):
        for b in range(r):
            ab = constant(a, b)
            for c in range(a + 1, r):
                left = table_mul(orders, mult, ab, basis[c])
                right = table_mul(orders, mult, basis[a], constant(b, c))
                yield (a, b, c), tuple((u - v) % n for u, v, n in zip(left, right, orders))


def read_table_document(text: str, kind: str, what: str):
    """Parse a ring document of the given kind; returns (doc, mult)."""
    doc = presentation.parse_ring_document(text)
    if doc["kind"] != kind:
        raise InvalidRing(f"not a {what} document")
    r = len(doc["basis_orders"])
    mult = tuple(doc["mult"][(i + 1, j + 1)] for i in range(r) for j in range(i, r))
    return doc, mult


class TableRing:
    """Element arithmetic over a structure-constant table.

    Subclasses provide ``mult`` (the flattened pair table), ``name`` and
    ``_orders`` (the additive orders of the basis).
    """

    def rank(self) -> int:
        return len(self._orders)

    def order(self) -> int:
        return prod(self._orders)

    def constant(self, i: int, j: int) -> tuple[int, ...]:
        if i > j:
            i, j = j, i
        r = len(self._orders)
        return self.mult[i * r - i * (i - 1) // 2 + (j - i)]

    def basis(self) -> list[tuple[int, ...]]:
        r = len(self._orders)
        return [tuple(int(m == i) for m in range(r)) for i in range(r)]

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self._orders)

    def add(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self._orders))

    def neg(self, x):
        return tuple((-a) % n for a, n in zip(x, self._orders))

    def mul(self, x, y):
        return table_mul(self._orders, self.mult, x, y)

    def elements(self):
        return iproduct(*(range(n) for n in self._orders))

    def additive_group(self) -> FinAbGroup:
        return FinAbGroup.from_orders(self._orders)

    def span(self, gens) -> frozenset:
        """The additive subgroup generated by ``gens``."""
        seen = {self.zero()}
        frontier = [self.zero()]
        gens = [g for g in gens if any(g)]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def check_table(self, one=None) -> None:
        """Raise InvalidRing unless every constant is in range, the product
        is well defined on the additive group (gcd(n_i, n_j) kills
        x_i * x_j), ``one`` (when given) is an identity, and the product is
        associative on the basis."""
        r = len(self._orders)
        orders = self._orders
        for i in range(r):
            for j in range(i, r):
                c = self.constant(i, j)
                if len(c) != r or any(not (0 <= v < n) for v, n in zip(c, orders)):
                    raise InvalidRing(f"constant ({i},{j}) out of range")
                kill = gcd(orders[i], orders[j])
                for m, v in enumerate(c):
                    if (kill * v) % orders[m]:
                        raise InvalidRing(f"bilinearity fails at ({i},{j}) coord {m}")
        basis = self.basis()
        if one is not None:
            for i in range(r):
                if self.mul(one, basis[i]) != basis[i]:
                    raise InvalidRing(f"identity fails on basis element {i}")
        for (i, j, k), assoc in associators(orders, self.mult):
            if any(assoc):
                raise InvalidRing(f"associativity fails at ({i},{j},{k})")

    def table_document(self, kind: str, **header) -> str:
        r = len(self._orders)
        table = {(i + 1, j + 1): self.constant(i, j)
                 for i in range(r) for j in range(i, r)}
        return presentation.format_ring_document(
            kind, self._orders, table, name=self.name or None, **header)
