"""Structure-constant rings: the arithmetic shared by radical and unital rings.

A commutative ring of rank r is stored as the additive orders of its basis
x_1, ..., x_r and, for every pair i <= j, the coordinate vector of
x_i * x_j, flattened row by row.  :class:`TableRing` turns such a table into
element arithmetic, spans and the checks every table must pass;
``RadicalRing`` and ``FinCommRing`` add their own invariants on top.

Two products read a table.  ``table_mul`` walks it on every call; it serves
code that touches a table only a few times (validation, nilpotency and
filtration checks, p-adic lifting, automorphisms) and is the reference.
``compile_product`` turns a table into one straight-line function, which
element-scale loops (unit groups, idempotent scans, adjoint groups, the TN
torsion-unit sweep) call instead.  The kernel is exact: coordinate m is the
same integer sum over the same nonzero constants as in ``table_mul``,
reduced once at the end, so both give the same tuples.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct
from math import gcd, prod
from operator import index

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


def compile_product(mult, moduli, shape=None, circle=False):
    """The product of the pair table ``mult`` as one straight-line function.

    ``mult`` is laid out as for ``table_mul``: the coordinate vector of
    x_i * x_j for every pair i <= j, row by row.  Coordinate m of the result
    is the sum of v * (x_i y_j + x_j y_i) (v * x_i y_i when i = j) over the
    pairs whose constant v at m is nonzero, reduced once mod ``moduli[m]``;
    a modulus of ``None`` leaves that coordinate unreduced.  ``shape`` is
    how the coordinates nest in an element: an int n is a flat tuple of n
    coordinates and a tuple of shapes is a tuple of such parts, in order
    (default: one flat tuple).  With ``circle`` the function returns
    x + y + xy instead, the circle operation of a radical ring.

    Only integers reach the generated source, each through
    ``operator.index``, so a float or a string raises instead of being
    truncated or spliced in.

    Z/4[x]/(x^2) on the basis 1, x:

    >>> mul = compile_product(((1, 0), (0, 1), (0, 0)), (4, 4))
    >>> mul((1, 1), (3, 2))
    (3, 1)
    >>> compile_product(((1, 0), (0, 1), (0, 0)), (4, 4), circle=True)((1, 1), (3, 2))
    (3, 0)
    """
    moduli = [None if n is None else index(n) for n in moduli]
    r = len(moduli)
    if shape is None:
        shape = r
    if _width(shape) != r:
        raise ValueError("shape does not match the moduli")
    if len(mult) != r * (r + 1) // 2:
        raise ValueError("structure constant count does not match the moduli")
    terms = [[] for _ in range(r)]  # per coordinate: (constant, pair number)
    pairs = []
    vectors = iter(mult)
    for i in range(r):
        for j in range(i, r):
            vec = next(vectors)
            if len(vec) != r:
                raise ValueError(f"constant ({i},{j}) has the wrong length")
            for m, v in enumerate(vec):
                v = index(v)
                if v:
                    terms[m].append((v, len(pairs)))
            pairs.append(f"x{i}*y{i}" if i == j else f"x{i}*y{j} + x{j}*y{i}")
    uses = [0] * len(pairs)
    for row in terms:
        for _, k in row:
            uses[k] += 1
    lines = [f"    {_unpack(shape, 'x', iter(range(r)))} = x",
             f"    {_unpack(shape, 'y', iter(range(r)))} = y"]
    # a pair that feeds several coordinates is multiplied out once
    for k, expr in enumerate(pairs):
        if uses[k] > 1:
            lines.append(f"    p{k} = {expr}")
    coords = []
    for m, (row, n) in enumerate(zip(terms, moduli)):
        parts = [f"x{m} + y{m}"] if circle else []
        for v, k in row:
            expr = f"p{k}" if uses[k] > 1 else pairs[k]
            if v != 1:
                expr = f"{v}*({expr})" if "+" in expr else f"{v}*{expr}"
            parts.append(expr)
        total = " + ".join(parts) or "0"
        coords.append(total if n is None else f"({total}) % {n}")
    name = "circle" if circle else "mul"
    lines.append(f"    return {_unpack(shape, None, iter(coords))}")
    namespace = {}
    exec(f"def {name}(x, y):\n" + "\n".join(lines) + "\n", namespace)
    # the function refers to its namespace as globals; popping it from
    # there leaves no reference cycle for the collector to find
    return namespace.pop(name)


def _width(shape) -> int:
    return sum(map(_width, shape)) if isinstance(shape, tuple) else index(shape)


def _unpack(shape, prefix, items) -> str:
    """A (possibly nested) tuple display of ``shape``: the names
    prefix0, prefix1, ... when ``prefix`` is given, else the next ``items``."""
    if isinstance(shape, tuple):
        parts = [_unpack(s, prefix, items) for s in shape]
    else:
        parts = [f"{prefix}{next(items)}" if prefix else next(items)
                 for _ in range(index(shape))]
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


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
    ``_orders`` (the additive orders of the basis).  ``mul`` is compiled on
    first use, after validation, and kept on the instance; it is not a
    dataclass field, so equality and hashing do not see it.
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

    @cached_property
    def mul(self):
        return self._kernel(circle=False)

    def _kernel(self, circle: bool):
        return compile_product(self.mult, self._orders, circle=circle)

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
                if table_mul(orders, self.mult, one, basis[i]) != basis[i]:
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
