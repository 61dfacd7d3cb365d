"""Structure-constant rings: the arithmetic shared by radical and unital rings.

A commutative ring of rank r is stored as the additive orders of its basis
x_1, ..., x_r and, for every pair i <= j, the coordinate vector of
x_i * x_j, flattened row by row.  This module owns that pair layout, for
radical rings, unital rings and the flat tables of TN models alike:
``pairs(r)`` lists the pairs in table order, ``pair_table(r, product)``
builds a table from a function of the pair, and ``pair_entry`` reads the
entry of x_i * x_j in either order.  No other module spells the layout
out.  This is the lowest layer: it imports only ``abelian``, and the text
documents of ``presentation`` read and write their tables through
``pairs``.  :class:`TableRing` turns such a table into element arithmetic
and the checks every table must pass; ``RadicalRing`` and ``FinCommRing``
add their own invariants on top.

Two products read a table.  ``table_mul`` walks it on every call; it serves
code that touches a table only a few times (nilpotency and filtration
checks, the identity check) and is the reference.  ``compile_product``
turns a table into one straight-line function, which element-scale loops
(unit groups, idempotent scans, adjoint groups, the TN torsion-unit sweep)
call instead.  The kernel is exact: coordinate m is the same integer sum
over the same nonzero constants as in ``table_mul``, reduced once at the
end, so both give the same tuples.  Its source is compiled once per shape
of the table (which constants are nonzero and which of them are 1), not
once per table: the other constants and the moduli are the arguments of a
cached factory that the kernel is bound from, so no constant reaches the
generated source.

Two more kernels take the table itself as input, not as constants,
because radical enumeration runs them on thousands of tables of one type.
``compile_transport`` carries a table along one additive automorphism; the
orbit closure of ``radical._orbit`` calls it on every step.  Like the
product, its source is compiled once per shape of its coefficients, and the
coefficients and orders are bound from a factory.
``associators`` evaluates one quadratic function of the table and its
orders for every basis associator, compiled once per rank; ``check_table``
and each p-adic lifting solve call it.  Both reduce each coordinate once,
where ``table_mul`` reduces x_i * x_j first.  Skipping that reduction is
exact: for an additive map, orders[m] * inverse[m][t] = 0 mod orders[t], so
a multiple of orders[m] in coordinate m contributes nothing to coordinate t;
an associator is a difference of two such sums, reduced mod orders[t].
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import gcd, prod
from operator import index

from .abelian import FinAbGroup


class InvalidRing(ValueError):
    """Structure constants that do not define the ring asked for: a ring
    table or a TN model that fails a shape, range, bilinearity, identity,
    associativity, nilpotency or closure check."""


def pairs(r: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i <= j, of a rank-r table, in table order."""
    return [(i, j) for i in range(r) for j in range(i, r)]


def pair_table(r: int, product) -> tuple:
    """The rank-r table whose entry for the pair (i, j) is product(i, j)."""
    return tuple(product(i, j) for i, j in pairs(r))


def pair_entry(mult, r: int, i: int, j: int):
    """The entry of the rank-r table ``mult`` for x_i * x_j, either order."""
    if i > j:
        i, j = j, i
    return mult[i * r - i * (i - 1) // 2 + j - i]


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

    The source depends only on the table's shape: which constants are
    nonzero and which of them are 1, ``shape``, ``circle`` and which moduli
    are ``None``.  It is compiled once per shape into a factory
    (``_product_factory``); every other constant and every modulus is an
    argument of that factory, so no constant reaches the generated source.
    Each passes through ``operator.index`` first, so a float or a string
    raises instead of being truncated.

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
    if len(mult) != len(pairs(r)):
        raise ValueError("structure constant count does not match the moduli")
    terms = [[] for _ in range(r)]  # per coordinate: (pair number, constant)
    for k, ((i, j), vec) in enumerate(zip(pairs(r), mult)):
        if len(vec) != r:
            raise ValueError(f"constant ({i},{j}) has the wrong length")
        for m, v in enumerate(vec):
            v = index(v)
            if v:
                terms[m].append((k, v))
    make = _product_factory(
        shape, circle, tuple(n is None for n in moduli),
        tuple(tuple((k, v == 1) for k, v in row) for row in terms))
    # the factory names its arguments coordinate by coordinate
    return make(*(v for row in terms for _, v in row if v != 1),
                *(n for n in moduli if n is not None))


# bounded; a round of the benchmark's `oracles` workload compiles 51 shapes
@lru_cache(maxsize=256)
def _product_factory(shape, circle, unreduced, pattern):
    """The factory of ``compile_product``'s kernels of one shape.
    ``pattern[m]`` lists (pair number, constant is 1) for the nonzero
    constants at coordinate m, and ``unreduced[m]`` whether its modulus is
    ``None``.  The factory takes the constants other than 1, coordinate by
    coordinate, then the moduli that are not ``None``."""
    r = len(pattern)
    products = [f"x{i}*y{i}" if i == j else f"x{i}*y{j} + x{j}*y{i}"
                for i, j in pairs(r)]
    uses = [0] * len(products)
    for row in pattern:
        for k, _ in row:
            uses[k] += 1
    lines = [f"    {_unpack(shape, 'x', iter(range(r)))} = x",
             f"    {_unpack(shape, 'y', iter(range(r)))} = y"]
    # a pair that feeds several coordinates is multiplied out once
    for k, expr in enumerate(products):
        if uses[k] > 1:
            lines.append(f"    p{k} = {expr}")
    constants, moduli, coords = [], [], []
    for m, (row, free) in enumerate(zip(pattern, unreduced)):
        parts = [f"x{m} + y{m}"] if circle else []
        for k, one in row:
            expr = f"p{k}" if uses[k] > 1 else products[k]
            if not one:
                c = f"c{len(constants)}"
                constants.append(c)
                expr = f"{c}*({expr})" if "+" in expr else f"{c}*{expr}"
            parts.append(expr)
        total = " + ".join(parts) or "0"
        if not free:
            moduli.append(f"n{len(moduli)}")
            total = f"({total}) % {moduli[-1]}"
        coords.append(total)
    lines.append(f"    return {_unpack(shape, None, iter(coords))}")
    return _factory(constants + moduli, "circle" if circle else "mul", "x, y", lines)


def _factory(bound, name, params, lines):
    """``make(*bound)``, which returns ``def name(params):`` with the body
    ``lines`` and the names ``bound`` bound to its arguments."""
    body = ["    " + line for line in lines]
    return _define("make", ", ".join(bound),
                   [f"    def {name}({params}):", *body, f"    return {name}"])


def _define(name, params, lines):
    """Exec ``def name(params):`` with the body ``lines``; the one place
    a kernel's source is run."""
    namespace = {}
    exec(f"def {name}({params}):\n" + "\n".join(lines) + "\n", namespace)
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


def compile_transport(orders, images, inverse):
    """Transport of a pair table along an additive automorphism, as one
    straight-line function of the table.

    ``images[j]`` is the coordinate vector of the image of basis vector j
    and ``inverse[j]`` that of its preimage.  The function maps a table in
    the ``table_mul`` layout to the table of the isomorphic ring in which
    new basis element i multiplies as the old images[i] did: entry (i, j),
    coordinate t, is the sum of c * T[q][m] over the nonzero coefficients
    c = images[i][a] * images[j][b] * inverse[m][t] (q the pair {a, b}),
    reduced once mod orders[t].  Both maps must be additive, that is
    orders[m] * row[m][t] = 0 mod orders[t] for every m and t, or
    ``ValueError`` is raised; for ``inverse`` that is what makes skipping
    the reduction of x_i * x_j mod orders[m] exact.  Kernels are kept in a
    bounded cache per (orders, images, inverse).  As for
    ``compile_product``, the source depends only on which coefficients are
    nonzero and which are 1: it is compiled once per such shape
    (``_transport_factory``), and the coefficients and orders are the
    factory's arguments, so no constant reaches the generated source.

    Swapping the basis of (Z/2)^2 turns x_1^2 = x_2 into x_2^2 = x_1:

    >>> swap = ((0, 1), (1, 0))
    >>> compile_transport((2, 2), swap, swap)(((0, 1), (0, 0), (0, 0)))
    ((0, 0), (0, 0), (1, 0))
    """
    def ints(rows):
        return tuple(tuple(map(index, row)) for row in rows)

    return _transport_kernel(tuple(map(index, orders)), ints(images), ints(inverse))


# bounded; a round of the benchmark's `oracles` workload builds 82
@lru_cache(maxsize=512)
def _transport_kernel(orders, images, inverse):
    r = len(orders)
    for what, rows in (("images", images), ("inverse", inverse)):
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError(f"{what} does not match the orders")
        for m, row in enumerate(rows):
            for t, v in enumerate(row):
                if orders[m] * v % orders[t]:
                    raise ValueError(f"{what} is not additive at ({m},{t})")
    support = [[(a, u) for a, u in enumerate(row) if u] for row in images]
    preimages = [[(m, inverse[m][t]) for m in range(r) if inverse[m][t]]
                 for t in range(r)]
    number = {pair: q for q, pair in enumerate(pairs(r))}
    pattern, constants = [], []
    for i, j in pairs(r):
        for t, n in enumerate(orders):
            coeffs = {}  # flat index q * r + m of T[q][m] -> coefficient
            for a, u in support[i]:
                for b, v in support[j]:
                    q = number[min(a, b), max(a, b)]
                    for m, w in preimages[t]:
                        coeffs[q * r + m] = coeffs.get(q * r + m, 0) + u * v * w
            row = [(k, c % n) for k, c in sorted(coeffs.items()) if c % n]
            pattern.append(tuple((k, c == 1) for k, c in row))
            constants.extend(c for _, c in row if c != 1)
    # the factory names its arguments coordinate by coordinate
    return _transport_factory(r, tuple(pattern))(*constants, *orders)


# bounded; a round of the benchmark's `oracles` workload compiles 42 shapes
@lru_cache(maxsize=256)
def _transport_factory(r: int, pattern):
    """The factory of ``compile_transport``'s kernels of one shape.
    ``pattern`` lists, for each coordinate t of each entry of the output,
    (flat index of T[q][m], coefficient is 1) for its nonzero coefficients.
    The factory takes the coefficients other than 1, coordinate by
    coordinate, then the r orders."""
    shape = (r,) * (r * (r + 1) // 2)
    constants, coords = [], []
    for e, row in enumerate(pattern):  # entry e // r, coordinate e % r
        terms = []
        for k, one in row:
            if not one:
                constants.append(f"c{len(constants)}")
            terms.append(f"t{k}" if one else f"{constants[-1]}*t{k}")
        coords.append(f"({' + '.join(terms)}) % n{e % r}" if terms else "0")
    lines = [f"    {_unpack(shape, 't', iter(range(r * len(shape))))} = table",
             f"    return {_unpack(shape, None, iter(coords))}"]
    moduli = [f"n{t}" for t in range(r)]
    return _factory(constants + moduli, "transport", "table", lines)


def associators(orders, mult):
    """Iterate over ((a, b, c), (x_a x_b) x_c - x_a (x_b x_c)) for a < c,
    all b, in lexicographic order.  For a commutative table these decide
    associativity: the associator is antisymmetric in a and c, so no earlier
    triple fails.  All of them come from one straight-line function of the
    table and the orders, compiled once per rank and kept in a bounded
    cache."""
    orders = tuple(map(index, orders))
    r = len(orders)
    triples = ((a, b, c) for a in range(r) for b in range(r) for c in range(a + 1, r))
    return zip(triples, _associator_kernel(r)(mult, orders))


# bounded; keyed by rank, not orders, because unital rings of one-off
# orders would each pay a compile
@lru_cache(maxsize=16)
def _associator_kernel(r: int):
    """Coordinate t of associator (a, b, c) is
    (sum_m T[ab][m] T[mc][t] - sum_m T[bc][m] T[am][t]) mod orders[t], the
    ``table_mul`` sums reduced once instead of twice."""
    count = len(pairs(r))
    entry = [[None] * r for _ in range(r)]  # entry[i][j]: names of T[ij]
    for q, (i, j) in enumerate(pairs(r)):
        entry[i][j] = entry[j][i] = [f"t{q * r + m}" for m in range(r)]
    coords = []
    for a in range(r):
        for b in range(r):
            for c in range(a + 1, r):
                ab, bc = entry[a][b], entry[b][c]
                for t in range(r):
                    left = " + ".join(f"{ab[m]}*{entry[m][c][t]}" for m in range(r))
                    right = "".join(f" - {bc[m]}*{entry[a][m][t]}" for m in range(r))
                    coords.append(f"({left}{right}) % n{t}")
    lines = [f"    {_unpack((r,) * count, 't', iter(range(r * count)))} = mult",
             f"    {_unpack(r, 'n', iter(range(r)))} = orders",
             f"    return {_unpack((r,) * (r * r * (r - 1) // 2), None, iter(coords))}"]
    return _define("associators", "mult, orders", lines)


class TableRing:
    """Element arithmetic over a structure-constant table.

    Subclasses provide ``mult`` (the flattened pair table), ``name`` and
    ``_orders`` (the additive orders of the basis).  ``mul`` is compiled on
    first use, after validation, and kept on the instance; equality and
    hashing compare only the subclass's fields, so they do not see it.
    """

    def rank(self) -> int:
        return len(self._orders)

    def order(self) -> int:
        return prod(self._orders)

    def constant(self, i: int, j: int) -> tuple[int, ...]:
        return pair_entry(self.mult, len(self._orders), i, j)

    def basis(self) -> list[tuple[int, ...]]:
        r = len(self._orders)
        return [tuple(int(m == i) for m in range(r)) for i in range(r)]

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self._orders)

    def add(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self._orders))

    @cached_property
    def mul(self):
        return self._kernel(circle=False)

    def _kernel(self, circle: bool):
        return compile_product(self.mult, self._orders, circle=circle)

    def elements(self):
        return iproduct(*(range(n) for n in self._orders))

    def additive_group(self) -> FinAbGroup:
        return FinAbGroup.from_orders(self._orders)

    def check_table(self, one=None) -> None:
        """Raise InvalidRing unless every constant is in range, the product
        is well defined on the additive group (gcd(n_i, n_j) kills
        x_i * x_j), ``one`` (when given) is an identity, and the product is
        associative on the basis."""
        r = len(self._orders)
        orders = self._orders
        if len(self.mult) != len(pairs(r)):
            raise InvalidRing("structure constant count does not match basis")
        for (i, j), c in zip(pairs(r), self.mult):
            if len(c) != r or any(not (0 <= v < n) for v, n in zip(c, orders)):
                raise InvalidRing(f"constant ({i},{j}) out of range")
            kill = gcd(orders[i], orders[j])
            for m, v in enumerate(c):
                if (kill * v) % orders[m]:
                    raise InvalidRing(f"bilinearity fails at ({i},{j}) coord {m}")
        if one is not None:
            basis = self.basis()
            for i in range(r):
                if table_mul(orders, self.mult, one, basis[i]) != basis[i]:
                    raise InvalidRing(f"identity fails on basis element {i}")
        for (i, j, k), assoc in associators(orders, self.mult):
            if any(assoc):
                raise InvalidRing(f"associativity fails at ({i},{j},{k})")
