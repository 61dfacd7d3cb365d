"""Exact arithmetic on finite and finitely generated abelian groups.

Groups are kept in a canonical prime-power form: a finite abelian group is
a sorted tuple of ``(p, e, mult)`` entries meaning ``(Z/p^e)^mult``.  Every
formula downstream (Prüfer ranks, lambda-power tests, Sylow decompositions)
is stated prime-locally, so this is the native representation.

The module also houses the exact Smith normal form used to recover group
structure from relation matrices, row reduction over F_p for the linear
tests of the ring oracles, plus
black-box structure recovery for a finite abelian group given only its
multiplication: the type is read off the sizes of the p-power kernels
G[p^j], and a basis is peeled off only where a caller needs one.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd, prod

from .numtheory import HypothesisViolated, factorize, is_prime
from .record import Frozen, _set


class FinAbGroup(Frozen):
    """A finite abelian group as a canonical multiset of prime-power factors.

    ``factors`` is a tuple of ``(p, e, mult)`` triples, sorted by ``(p, e)``
    with no duplicate ``(p, e)`` keys; the trivial group is the empty tuple.

    >>> FinAbGroup.from_orders([6]) == FinAbGroup.from_orders([2, 3])
    True
    >>> FinAbGroup.from_orders([4]) == FinAbGroup.from_orders([2, 2])
    False
    """

    _repr_fields = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int, int], ...] = ()):
        _set(self, "factors", factors)
        seen = set()
        for p, e, mult in factors:
            if e < 1 or mult < 1:
                raise ValueError(f"bad factor (Z/{p}^{e})^{mult}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if (p, e) in seen:
                raise ValueError(f"duplicate factor key ({p}, {e})")
            seen.add((p, e))
        if list(factors) != sorted(factors):
            raise ValueError("factors not in canonical order")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_orders(cls, orders) -> "FinAbGroup":
        """Build from cyclic factor orders, CRT-splitting into prime powers."""
        counts: dict[tuple[int, int], int] = {}
        for n in orders:
            if n < 1:
                raise ValueError(f"bad cyclic order {n}")
            for p, e in factorize(n).pairs:
                counts[(p, e)] = counts.get((p, e), 0) + 1
        return cls(tuple((p, e, m) for (p, e), m in sorted(counts.items())))

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(())

    # -- basic queries -----------------------------------------------------

    def is_trivial(self) -> bool:
        return not self.factors

    def order(self) -> int:
        return prod(p ** (e * m) for p, e, m in self.factors)

    def exponent(self) -> int:
        exp = 1
        for p, e, _ in self.factors:
            exp = exp * p ** e // gcd(exp, p ** e)
        return exp

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for p, _, _ in self.factors}))

    def cyclic_orders(self) -> tuple[int, ...]:
        """All prime-power cyclic factor orders, with multiplicity."""
        out = []
        for p, e, m in self.factors:
            out.extend([p ** e] * m)
        return tuple(out)

    def is_cyclic(self) -> bool:
        return all(m == 1 for _, _, m in self.factors) and (
            len({p for p, _, _ in self.factors}) == len(self.factors)
        )

    def direct_product(self, other: "FinAbGroup") -> "FinAbGroup":
        counts: dict[tuple[int, int], int] = {}
        for g in (self, other):
            for p, e, m in g.factors:
                counts[(p, e)] = counts.get((p, e), 0) + m
        return FinAbGroup(tuple((p, e, m) for (p, e), m in sorted(counts.items())))

    def __mul__(self, other: "FinAbGroup") -> "FinAbGroup":
        return self.direct_product(other)

    def power(self, k: int) -> "FinAbGroup":
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return FinAbGroup.trivial()
        return FinAbGroup(tuple((p, e, m * k) for p, e, m in self.factors))

    def __pow__(self, k: int) -> "FinAbGroup":
        return self.power(k)

    def sylow(self, p: int) -> "FinAbGroup":
        """The Sylow p-subgroup, in canonical form."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return FinAbGroup(tuple(f for f in self.factors if f[0] == p))

    def without_prime(self, p: int) -> "FinAbGroup":
        return FinAbGroup(tuple(f for f in self.factors if f[0] != p))

    def __str__(self) -> str:
        return format_group(FgAbGroup(self, 0))


def prufer_rank(G: FinAbGroup, p: int) -> int:
    """Number of cyclic factors of the Sylow p-subgroup.

    >>> prufer_rank(FinAbGroup.from_orders([5, 5, 25]), 5)
    3
    """
    return sum(m for q, _, m in G.factors if q == p)


def is_lambda_small(G: FinAbGroup, p: int, lam: int) -> bool:
    """True iff the p-group G has Prüfer rank strictly below lam*(p-1)."""
    if any(q != p for q, _, _ in G.factors):
        raise HypothesisViolated(f"group has a factor with prime != {p}")
    if lam < 1:
        raise ValueError("lambda must be positive")
    return prufer_rank(G, p) < lam * (p - 1)


def lambda_power_decompose(G: FinAbGroup, lam: int) -> FinAbGroup | None:
    """If G is isomorphic to V^lam, return V; otherwise None.

    >>> V = lambda_power_decompose(FinAbGroup.from_orders([7, 7, 7, 7, 49, 49]), 2)
    >>> V == FinAbGroup.from_orders([7, 7, 49])
    True
    """
    if lam < 1:
        raise ValueError("lambda must be positive")
    if lam == 1:
        return G
    if any(m % lam for _, _, m in G.factors):
        return None
    V = FinAbGroup(tuple((p, e, m // lam) for p, e, m in G.factors))
    assert V.power(lam) == G
    return V


def epsilon(G: "FinAbGroup | FgAbGroup") -> int | None:
    """Minimal k with a cyclic factor of order 2^k in the torsion part.

    Returns None when the Sylow 2-subgroup is trivial (a distinct tagged
    value, never 0, so callers cannot silently misuse the odd-order case).
    """
    tors = G.torsion if isinstance(G, FgAbGroup) else G
    twos = [e for p, e, _ in tors.factors if p == 2]
    return min(twos) if twos else None


class FgAbGroup(Frozen):
    """A finitely generated abelian group: torsion part plus a free rank."""

    _repr_fields = ("torsion", "free_rank")

    def __init__(self, torsion: FinAbGroup, free_rank: int = 0):
        _set(self, "torsion", torsion)
        _set(self, "free_rank", free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    def __str__(self) -> str:
        return format_group(self)


# ---------------------------------------------------------------------------
# group literal grammar: Z/nZ factors and Z^r joined by 'x'

_FACTOR_RE = re.compile(r"^Z/(\d+)Z?$|^Z(?:\^(\d+))?$|^(1)$")


# bounded; a seed-5 round of the benchmark's `decide-stream` workload leaves
# 131 entries, and `cli` and the certificate re-check parse the same literal
@lru_cache(maxsize=512)
def parse_group(text: str) -> FgAbGroup:
    """Parse a group literal like ``Z/4Z x Z/8Z x Z^2``.

    Whitespace- and case-insensitive; ``Z`` means ``Z^1`` and ``1`` (or
    ``Z/1Z``) denotes a trivial factor.

    >>> parse_group("Z/4Z x Z/8Z x Z^2")
    FgAbGroup(torsion=FinAbGroup(factors=((2, 2, 1), (2, 3, 1))), free_rank=2)
    """
    squeezed = re.sub(r"\s+", "", text).upper()
    if not squeezed:
        raise ValueError("empty group literal")
    orders: list[int] = []
    rank = 0
    for piece in squeezed.split("X"):
        m = _FACTOR_RE.match(piece)
        if not m:
            raise ValueError(f"unrecognized group factor {piece!r}")
        if m.group(1) is not None:
            n = int(m.group(1))
            if n < 1:
                raise ValueError(f"bad cyclic order in {piece!r}")
            if n > 1:
                orders.append(n)
        elif m.group(3) is not None:
            pass  # literal '1', the trivial factor
        else:
            rank += int(m.group(2)) if m.group(2) else 1
    return FgAbGroup(FinAbGroup.from_orders(orders), rank)


def format_group(G: "FgAbGroup | FinAbGroup") -> str:
    """Canonical printer; round-trips through :func:`parse_group`."""
    if isinstance(G, FinAbGroup):
        G = FgAbGroup(G, 0)
    parts = [f"Z/{n}Z" for n in G.torsion.cyclic_orders()]
    if G.free_rank == 1:
        parts.append("Z")
    elif G.free_rank > 1:
        parts.append(f"Z^{G.free_rank}")
    return " x ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form, exact over Z


def smith_normal_form(
    rows: list[list[int]], want_transforms: bool = False
):
    """Smith normal form of an integer matrix.

    Returns the diagonal entries ``d_1 | d_2 | ...`` (nonnegative), or
    ``(diag, U, V)`` with ``U * A * V = S`` when ``want_transforms`` is set.
    Pivoting picks the smallest nonzero absolute value with a deterministic
    tie-break (lowest row, then column), so outputs are reproducible.  The
    pivot's column, then its row, is cleared by reducing every entry by the
    smallest one in it, again and again: small quotients keep the other
    entries small, even for many more relations than generators.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in m:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(nr, nc):
        # smallest |entry| pivot in the trailing block, lowest row then column
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            while any(m[i][t] for i in range(t + 1, nr)):
                swap_rows(t, min((i for i in range(t, nr) if m[i][t]),
                                 key=lambda i: abs(m[i][t])))
                for i in range(t + 1, nr):
                    if m[i][t]:
                        row_op(i, t, m[i][t] // m[t][t])
            if not any(m[t][j] for j in range(t + 1, nc)):
                break
            while any(m[t][j] for j in range(t + 1, nc)):
                swap_cols(t, min((j for j in range(t, nc) if m[t][j]),
                                 key=lambda j: abs(m[t][j])))
                for j in range(t + 1, nc):
                    if m[t][j]:
                        col_op(j, t, m[t][j] // m[t][t])
        # divisibility fix-up: pivot must divide the rest of the block
        stray = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            row_op(t, stray, -1)  # fold the offending row into row t, redo
            continue
        if m[t][t] < 0:
            m[t] = [-a for a in m[t]]
            U[t] = [-a for a in U[t]]
        t += 1

    diag = [m[i][i] for i in range(min(nr, nc))]
    if want_transforms:
        return diag, U, V
    return diag


def group_from_relations(rows: list[list[int]], n_generators: int) -> FgAbGroup:
    """Structure of the cokernel Z^n / (row lattice of the relation matrix).

    >>> group_from_relations([[2, 1], [0, 4]], 2).torsion.cyclic_orders()
    (8,)
    >>> group_from_relations([], 3)
    FgAbGroup(torsion=FinAbGroup(factors=()), free_rank=3)
    """
    for r in rows:
        if len(r) != n_generators:
            raise ValueError("relation width does not match generator count")
    if not rows:
        return FgAbGroup(FinAbGroup.trivial(), n_generators)
    diag = smith_normal_form(rows)
    orders = [d for d in diag if d not in (0, 1)]
    rank = n_generators - sum(1 for d in diag if d != 0)
    return FgAbGroup(FinAbGroup.from_orders(orders), rank)


def row_reduce_mod(rows, p: int) -> tuple[list[int], list[list[int]]]:
    """Reduced row echelon form of the integer rows ``rows`` over F_p, as
    ``(pivots, reduced)``: the pivot columns (their number is the rank) and
    the nonzero rows, each 1 at its own pivot and 0 at the other pivots."""
    m = [[a % p for a in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        inv = pow(m[piv][c], -1, p)
        m[piv], m[r] = m[r], [a * inv % p for a in m[piv]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [(a - f * b) % p for a, b in zip(row, m[r])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


# ---------------------------------------------------------------------------
# black-box structure recovery


def _power(op, identity, x, k):
    """x^k by left-to-right square-and-multiply: no product with the
    identity and no squaring after the last bit (x^2 costs one ``op``)."""
    if k == 0:
        return identity
    acc = x
    for bit in bin(k)[3:]:
        acc = op(acc, acc)
        if bit == "1":
            acc = op(acc, x)
    return acc


def abelian_structure(elements, op, identity) -> FinAbGroup:
    """Isomorphism type of a finite abelian group given by a multiplication.

    For each prime p of n = |G| the p-power map x -> x^p is computed once
    and walked back from the identity, which counts the kernels G[p^j] of
    the powers of p.  The index |G[p^j] : G[p^(j-1)]| is p^a_j, where a_j
    is the number of cyclic factors of exponent at least j, so the counts
    alone fix the Sylow p-part; no basis is built.

    After prime p, of exponent v in n, the set shrinks to its image under
    x -> x^(p^v), read off the power map in v lookups per element with no
    further products.  That is exact: the image is G_p', the part of G of
    order prime to p, since the map kills G_p and is a bijection on G_p';
    and every q-power kernel for q != p lies in G_p'.  So each prime's
    power map runs on the elements that prime can still see.  A set that
    is not a group under ``op`` fails an assertion instead of getting a
    type.

    >>> units = [x for x in range(35) if x % 5 and x % 7]
    >>> print(abelian_structure(units, lambda a, b: a * b % 35, 1))
    Z/2Z x Z/4Z x Z/3Z
    """
    elems = set(elements)
    n = len(elems)
    primes = factorize(n).pairs
    factors = []
    for k, (p, v) in enumerate(primes):
        # x^p by ``_power``'s square-and-multiply, inlined: one call per
        # product, and the bits of p read once per prime
        bits = bin(p)[3:]
        power = {}
        for x in elems:
            acc = x
            for bit in bits:
                acc = op(acc, acc)
                if bit == "1":
                    acc = op(acc, x)
            power[x] = acc
        roots: dict = {}
        for x, y in power.items():
            roots.setdefault(y, []).append(x)
        # after step j, level holds the elements of order exactly p^j,
        # size is |G[p^j]| and ranks[j - 1] is a_j
        ranks = []
        level = [identity]
        size = 1
        while True:
            level = [x for y in level for x in roots.get(y, ()) if x != identity]
            if not level:
                break
            index, rest = divmod(size + len(level), size)
            a = 0
            while p ** a < index:
                a += 1
            assert not rest and p ** a == index, "kernel index is not a power of p"
            assert not ranks or a <= ranks[-1], "kernel indices grow"
            ranks.append(a)
            size *= index
        assert size == p ** v, f"p-power kernels fill {size}, not {p}^{v}"
        for j, a in enumerate(ranks, 1):
            mult = a - (ranks[j] if j < len(ranks) else 0)
            if mult:
                factors.append((p, j, mult))
        if k + 1 < len(primes):
            image = elems
            for _ in range(v):
                image = {power[x] for x in image}
                assert image <= elems, "p-th powers leave the set"
            assert len(image) * p ** v == len(elems), \
                f"the {p}^{v}-th powers are not a subgroup of index {p}^{v}"
            elems = image
        del power, roots
    return FinAbGroup(tuple(factors))


def pgroup_basis(elems, op, identity, p):
    """Basis (element, order) pairs of an abelian p-group, black-box.

    The returned elements generate the group as a direct sum of the cyclic
    subgroups they span; quotient representatives are corrected so their
    orders match the quotient (the classical lifting step).
    """
    elems = sorted(set(elems))
    if len(elems) == 1:
        return []

    def order_of(x):
        o = 1
        while x != identity:
            x = _power(op, identity, x, p)
            o *= p
        return o

    g = max(elems, key=lambda x: (order_of(x), ))
    d = order_of(g)
    cyc = {}
    y = identity
    for i in range(d):
        cyc[y] = i
        y = op(y, g)

    coset_of = {}
    cosets = []
    for x in elems:
        if x in coset_of:
            continue
        members = []
        y = x
        for _ in range(d):
            members.append(y)
            y = op(y, g)
        label = min(members)
        for mbr in members:
            coset_of[mbr] = label
        cosets.append(label)
    if len(cosets) == 1:
        return [(g, d)]

    def qop(a, b):
        return coset_of[op(a, b)]

    qbasis = pgroup_basis(sorted(cosets), qop, coset_of[identity], p)
    out = [(g, d)]
    inv_g = _power(op, identity, g, d - 1)
    for rep, f in qbasis:
        # rep^f lands in <g>; divide out to fix the order of the lift
        r = rep
        # find the member of rep's coset whose f-th power is identity
        t = _power(op, identity, r, f)
        c = cyc[t]
        assert c % f == 0, "maximal-order peeling violated"
        shift = _power(op, identity, inv_g, c // f)
        r = op(r, shift)
        assert _power(op, identity, r, f) == identity
        out.append((r, f))
    assert prod(o for _, o in out) == len(elems)
    return out
