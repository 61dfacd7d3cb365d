"""Finite commutative unital rings by structure constants.

Everything here is an oracle at desk scale.  Unit elements come from a
linear test mod each prime p of |A|: p A_p is nilpotent, so it lies in the
Jacobson radical of the p-part A_p, and by Nakayama's lemma x is a unit
exactly when multiplication by x is invertible on every A/pA (B. R.
McDonald, *Finite Rings with Identity*, 1974).  Locality is linear algebra
on A/pA too: Frobenius x -> x^p is F_p-linear there, its fixed points
count the local factors, and its d-th power (d = dim A/pA) has the
nilradical as kernel, whose preimage is the maximal ideal m (L. Rónyai,
J. Symbolic Comput. 9, 1990).  Unit groups are then recovered from the
unit elements by ``abelian_structure``, and the local unit-structure
identity A* = F* x (1 + m) is re-verified on every local instance rather
than assumed.  Both sides come from the same compiled product of A: 1 + m is
the set {1 + x : x in m} inside A*, whose group is the adjoint group of m.
"""

from __future__ import annotations

from itertools import product as iproduct

from .abelian import FinAbGroup, _power, abelian_structure, row_reduce_mod
from .caps import UNIT_GROUP_CAP, CapExceeded, oracle_cap
from .numtheory import HypothesisViolated, factorize, is_prime, is_prime_power
from .radical import RadicalRing, radical_ring_from_mult
from .record import Frozen, _set
from .table import InvalidRing, TableRing, pair_table
from . import presentation


class FinCommRing(TableRing, Frozen):
    """Finite commutative unital ring: additive orders, structure constants,
    identity coordinates.  Orders need not be prime powers (Z/6Z is one
    basis element of order 6).  ``name`` takes no part in equality or
    hashing."""

    _repr_fields = ("basis_orders", "mult", "one", "name")
    _uncompared = ("name",)

    def __init__(self, basis_orders: tuple[int, ...],
                 mult: tuple[tuple[int, ...], ...],  # pairs (i, j), i <= j
                 one: tuple[int, ...], name: str = ""):
        _set(self, "basis_orders", basis_orders)
        _set(self, "mult", mult)
        _set(self, "one", one)
        _set(self, "name", name)
        _set(self, "_orders", basis_orders)
        if any(n < 2 for n in basis_orders):
            raise InvalidRing("basis orders must be >= 2")
        if len(one) != len(basis_orders):
            raise InvalidRing("identity width does not match basis")
        validate_ring(self)

    def to_presentation(self) -> str:
        return presentation.format_ring_document(
            "ring", self.basis_orders, self.mult, one=self.one, name=self.name)

    @classmethod
    def from_presentation(cls, text: str) -> "FinCommRing":
        doc = presentation.parse_ring_document(text, "ring")
        return cls(doc["basis_orders"], doc["mult"], doc["one"],
                   name=doc.get("name", ""))

    def __str__(self):
        label = self.name or "ring"
        return f"{label} of order {self.order()}"


def validate_ring(A: FinCommRing) -> None:
    A.check_table(one=A.one)


# ---------------------------------------------------------------------------
# units


def unit_elements(A: FinCommRing) -> list[tuple[int, ...]]:
    """All invertible elements, in element order, by a linear test mod p.

    For each prime p of |A|, A/pA is Z/p on every basis index i with
    p | n_i.  Since p A_p lies in the Jacobson radical of the p-part A_p,
    x is a unit exactly when multiplication by x is invertible on A/pA for
    every p (Nakayama's lemma; B. R. McDonald, *Finite Rings with
    Identity*, 1974).  That matrix is sum_k x_k M(b_k) mod p, which depends
    only on the residue of x, so each residue class of A/pA is tested once.
    """
    n = _check_unit_cap(A)
    tests = []
    for p in factorize(n).primes():
        idx = [i for i, m in enumerate(A.basis_orders) if m % p == 0]
        # images[k][i] = b_k * b_i in A/pA: the rows of the (transposed)
        # matrix of multiplication by b_k
        images = [[[A.constant(k, i)[m] % p for m in idx] for i in idx]
                  for k in idx]
        invertible = set()
        for res in iproduct(range(p), repeat=len(idx)):
            rows = [[0] * len(idx) for _ in idx]
            for c, image in zip(res, images):
                if c:
                    rows = [[(a + c * b) % p for a, b in zip(row, add)]
                            for row, add in zip(rows, image)]
            if len(row_reduce_mod(rows, p)[0]) == len(idx):
                invertible.add(res)
        tests.append((p, idx, invertible))
    return [x for x in A.elements()
            if all(tuple(x[i] % p for i in idx) in invertible
                   for p, idx, invertible in tests)]


def _check_unit_cap(A: FinCommRing) -> int:
    """|A|, after raising CapExceeded when it exceeds the unit-group cap."""
    cap = oracle_cap(UNIT_GROUP_CAP)
    n = A.order()
    if n > cap:
        raise CapExceeded(f"ring order {n} exceeds the unit-group cap {cap}")
    return n


def unit_group(A: FinCommRing, units=None) -> FinAbGroup:
    """Isomorphism type of A*, recovered from the invertible elements
    (``units`` when the caller already has them, as ``LocalData.units``;
    otherwise ``unit_elements`` searches for them).

    >>> Z9 = zn_ring(9)
    >>> str(unit_group(Z9))
    'Z/2Z x Z/3Z'
    """
    if units is None:
        units = unit_elements(A)
    return abelian_structure(units, A.mul, A.one)


class LocalData(Frozen):
    """A local ring's residue characteristic p, residue degree lam, maximal
    ideal and residue field size.  ``units`` keeps the unit elements for
    later steps; it is neither printed nor compared."""

    _repr_fields = ("p", "lam", "maximal_ideal", "residue_size")

    def __init__(self, p: int, lam: int,
                 maximal_ideal: tuple[tuple[int, ...], ...],
                 residue_size: int, units: tuple[tuple[int, ...], ...]):
        _set(self, "p", p)
        _set(self, "lam", lam)
        _set(self, "maximal_ideal", maximal_ideal)
        _set(self, "residue_size", residue_size)
        _set(self, "units", units)


class NotLocal(Frozen):
    """A nontrivial idempotent, which splits the ring."""

    _repr_fields = ("idempotent",)

    def __init__(self, idempotent: tuple[int, ...]):
        _set(self, "idempotent", idempotent)


def localize(A: FinCommRing):
    """LocalData when A is local, else a NotLocal witness carrying the first
    nontrivial idempotent in element order, which splits the ring.

    Both questions are linear algebra on B = A/pA when |A| = p^k.  B is an
    F_p-algebra of dimension d = rank A, and the Frobenius map x -> x^p is
    F_p-linear on it, with rows b_i^p mod p.  In a local factor of B the
    fixed points of Frobenius are the roots of X^p - X, which lift uniquely
    from the residue field, so they are F_p e for the factor's identity e;
    the number of local factors of A (which are those of B) is therefore
    dim ker(Frob - 1), and A is local exactly when it is 1.  The nilradical
    of B is ker(Frob^d), since a nilpotent x has x^d = 0, and the maximal
    ideal m of a local A is the preimage of that nilradical (pA lies in m).
    One pass over the elements then splits them into m and the units.
    A ring of any other order, or with several local factors, is scanned
    for its first nontrivial idempotent.  LocalData keeps the unit elements,
    so later steps need not search again."""
    n = _check_unit_cap(A)
    pe = is_prime_power(n)
    if pe is None or _frobenius_fixed_dimension(A, pe[0]) > 1:
        zero = A.zero()
        for e in A.elements():
            if e != zero and e != A.one and A.mul(e, e) == e:
                return NotLocal(e)
        # only the zero ring, of order 1, has no local factor at all
        raise InvalidRing("residue size is not a prime power")
    p = pe[0]
    nilradical = set(_kernel_span(_frobenius_rows(A, p, p ** A.rank()), p))
    # x lies in m exactly when its residue mod p lies in the nilradical;
    # the residues run through iproduct in the same order as the elements
    residues = iproduct(*([v % p for v in range(order)]
                         for order in A.basis_orders))
    maximal, units = [], []
    for x, r in zip(A.elements(), residues):
        (maximal if r in nilradical else units).append(x)
    residue = n // len(maximal)
    pe = is_prime_power(residue)
    if pe is None:
        raise InvalidRing("residue size is not a prime power")
    p, lam = pe
    # residue-degree consistency: A* must contain an element of order p^lam - 1
    if residue > 2:
        target = residue - 1
        assert any(_mult_order_in(A, u, target) == target for u in units), \
            "residue field size inconsistent with the unit group"
    return LocalData(p, lam, tuple(maximal), residue, tuple(units))


def _frobenius_rows(A: FinCommRing, p: int, q: int) -> list[list[int]]:
    """The matrix of x -> x^q on A/pA for a power q of p, with rows
    b_i^q mod p; every basis order of A is a power of p."""
    return [[c % p for c in _power(A.mul, A.one, b, q)] for b in A.basis()]


def _frobenius_fixed_dimension(A: FinCommRing, p: int) -> int:
    """dim ker(Frob - 1) on A/pA, the number of local factors of A."""
    rows = _frobenius_rows(A, p, p)
    for i, row in enumerate(rows):
        row[i] -= 1
    return len(rows) - len(row_reduce_mod(rows, p)[0])


def _kernel_span(rows, p: int):
    """Every x in F_p^d with x M = 0 for the d x d matrix ``rows``."""
    d = len(rows)
    # x M = 0 is M^T x = 0: solve for the pivot coordinates of the
    # reduced columns of M in terms of the free ones
    pivots, reduced = row_reduce_mod([list(col) for col in zip(*rows)], p)
    free = [c for c in range(d) if c not in pivots]
    for values in iproduct(range(p), repeat=len(free)):
        x = [0] * d
        for c, v in zip(free, values):
            x[c] = v
        for c, row in zip(pivots, reduced):
            x[c] = -sum(row[f] * v for f, v in zip(free, values)) % p
        yield tuple(x)


def _mult_order_in(A: FinCommRing, x, bound: int) -> int:
    acc = x
    for k in range(1, bound + 1):
        if acc == A.one:
            return k
        acc = A.mul(acc, x)
    return 0


def maximal_ideal_ring(A: FinCommRing, data: LocalData) -> RadicalRing:
    """The maximal ideal as a standalone radical ring (it is nilpotent)."""
    return radical_ring_from_mult(
        list(data.maximal_ideal), A.add, A.zero(), A.mul, data.p,
        name=f"m({A.name})" if A.name else "")


def _one_plus_m(A: FinCommRing, data: LocalData) -> FinAbGroup:
    """The group 1 + m, recovered inside A* on the product ``unit_group``
    already compiled.  It is the adjoint group of the maximal ideal, since
    (1 + x)(1 + y) = 1 + (x o y), so m need not be rebuilt as a radical
    ring (``maximal_ideal_ring`` does that for callers who want one)."""
    return abelian_structure([A.add(A.one, x) for x in data.maximal_ideal],
                             A.mul, A.one)


def verify_local_formula(A: FinCommRing, data=None, group=None) -> bool:
    """Check A* = Z/(p^lam - 1) x (1 + m) for a local ring, with 1 + m
    computed inside A* (``_one_plus_m``).  A caller that already has
    ``localize(A)`` and ``unit_group(A)`` passes them as ``data`` and
    ``group``."""
    if data is None:
        data = localize(A)
    if isinstance(data, NotLocal):
        raise HypothesisViolated(f"{A} splits at idempotent {data.idempotent}")
    if group is None:
        group = unit_group(A, units=data.units)
    one_plus_m = _one_plus_m(A, data)
    expected = FinAbGroup.from_orders([data.residue_size - 1]) * one_plus_m \
        if data.residue_size > 2 else one_plus_m
    return group == expected


# ---------------------------------------------------------------------------
# stock constructions


def zn_ring(n: int) -> FinCommRing:
    """Z/nZ as a one-generator ring."""
    return FinCommRing((n,), ((1,),), (1,), name=f"Z/{n}Z")


def poly_quotient_ring(char: int, modpoly: tuple[int, ...], name: str = "") -> FinCommRing:
    """(Z/char)[t]/(f) for a monic f given little-endian; basis 1, t, ..."""
    d = len(modpoly) - 1
    orders = (char,) * d
    # red[k] is t^k reduced mod f, for k up to 2d-2
    red = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    for _ in range(d - 1):
        prev = red[-1]
        red.append(tuple((c - prev[-1] * a) % char
                         for c, a in zip((0,) + prev[:-1], modpoly)))
    mult = pair_table(d, lambda i, j: red[i + j])
    one = tuple(int(i == 0) for i in range(d))
    return FinCommRing(orders, mult, one, name=name)


_IRREDUCIBLE = {  # smallest-lex monic irreducible over F_p, little-endian
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
}


def field_ring(q: int) -> FinCommRing:
    """The finite field F_q as structure constants."""
    if q in _IRREDUCIBLE:
        p, _ = is_prime_power(q)
        return poly_quotient_ring(p, _IRREDUCIBLE[q], name=f"F_{q}")
    if not is_prime(q):
        raise InvalidRing(f"no irreducible polynomial on file for {q}")
    return FinCommRing((q,), ((1,),), (1,), name=f"F_{q}")


def galois_ring(p: int, c: int, q: int) -> FinCommRing:
    """GR(p^c, d): (Z/p^c)[t]/(f) for the lift of the F_q polynomial."""
    f = _IRREDUCIBLE[q]
    return poly_quotient_ring(p ** c, f, name=f"GR({p}^{c},{q})")


def zn_with_nilpotent(n: int, d: int) -> FinCommRing:
    """(Z/n)[t]/(t^2, (n/d) t): basis 1 of order n and t of order d | n."""
    if n % d:
        raise InvalidRing("t-order must divide the characteristic")
    return FinCommRing((n, d), ((1, 0), (0, 1), (0, 0)), (1, 0),
                       name=f"Z/{n}Z[t]/(t^2,{n // d}t)")


def nilpotent_extension(B: FinCommRing) -> FinCommRing:
    """B[t]/(t^2): doubles the basis with a square-zero copy."""
    r = B.rank()
    orders = B.basis_orders + B.basis_orders

    def product(i, j):
        # basis i is b_(i mod r) t^(i // r), and t^2 = 0
        t = i // r + j // r
        if t > 1:
            return (0,) * (2 * r)
        return (0,) * (t * r) + B.constant(i % r, j % r) + (0,) * ((1 - t) * r)

    one = B.one + (0,) * r
    return FinCommRing(orders, pair_table(2 * r, product), one,
                       name=f"{B.name}[t]/(t^2)" if B.name else "")


def unitalization(N: RadicalRing, c: int, name: str = "") -> FinCommRing:
    """Z/p^c . 1 + N, the radical ring N extended with an identity.

    Needs exponent(N) | p^c so that the characteristic kills N.
    """
    p = N.p
    if N.exponents and c < max(N.exponents):
        raise InvalidRing("characteristic too small for the radical part")
    r = N.rank()
    orders = (p ** c,) + N.orders()

    def product(i, j):
        # basis 0 is the identity, basis i > 0 is x_(i-1) of N
        if i == 0:
            return tuple(int(m == j) for m in range(r + 1))
        return (0,) + N.constant(i - 1, j - 1)

    return FinCommRing(orders, pair_table(r + 1, product), (1,) + (0,) * r,
                       name=name or f"Z/{p ** c}Z+N[{N.order()}]")


def product_ring(A: FinCommRing, B: FinCommRing) -> FinCommRing:
    ra, rb = A.rank(), B.rank()
    orders = A.basis_orders + B.basis_orders

    def product(i, j):
        if j < ra:
            return A.constant(i, j) + (0,) * rb
        if i >= ra:
            return (0,) * ra + B.constant(i - ra, j - ra)
        return (0,) * (ra + rb)

    one = A.one + B.one
    name = f"{A.name} x {B.name}" if A.name and B.name else ""
    return FinCommRing(orders, pair_table(ra + rb, product), one, name=name)


# ---------------------------------------------------------------------------
# the verification corpus


def build_corpus() -> list[FinCommRing]:
    """The golden corpus: unitalizations of the small radical enumeration
    plus stock families (Z/n, F_q, Galois/quotient constructions)."""
    from .radical import enumerate_radical_rings
    out: list[FinCommRing] = []
    for n in range(2, 17):
        out.append(zn_ring(n))
    for n in (25, 27, 32):
        out.append(zn_ring(n))
    for q in (4, 8, 9, 16, 25, 27):
        out.append(field_ring(q))
    out.append(galois_ring(2, 2, 4))     # GR(4,4): local of residue degree 2
    out.append(galois_ring(3, 2, 9))     # GR(9,9)
    out.append(nilpotent_extension(field_ring(4)))   # F_4[t]/(t^2)
    out.append(zn_with_nilpotent(4, 2))  # Z/4[t]/(t^2, 2t)
    out.append(zn_with_nilpotent(8, 2))
    out.append(zn_with_nilpotent(9, 3))
    out.append(product_ring(zn_ring(4), field_ring(4)))
    out.append(product_ring(zn_ring(3), zn_ring(8)))
    for k in (1, 2, 3):
        for idx, N in enumerate(enumerate_radical_rings(2, k)):
            exp = max(N.exponents) if N.exponents else 1
            for c in range(exp, 5 - k):
                out.append(unitalization(N, c, name=f"Z/{2 ** c}Z+N{2 ** k}.{idx}"))
    for idx, N in enumerate(enumerate_radical_rings(3, 1)):
        out.append(unitalization(N, 1, name=f"Z/3Z+N3.{idx}"))
    return out
