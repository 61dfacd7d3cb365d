"""Executable models of TN rings.

A model is A = Z[zeta_k]-algebra, free of finite rank on a power basis
{1, x, ..., x^{f-1}} plus a finite torsion part spanned by nilpotent
symbols, with the base root of unity acting on torsion coordinates through
an explicit matrix.  That is enough to reproduce the characteristic
examples: the torsion ideal, its adjoint group, the torsion units of the
model and of its torsion-free quotient B = A / N_tors, and whether the unit
sequence 1 -> 1+N -> A*_tors -> B*_tors -> 1 splits.  This module holds
only that ring arithmetic: ``presentation`` maps the ``.tn`` symbol names
and rows to and from the tuples a model keeps.

The product is compiled into structure constants once per model.  Over Z
an element has coordinates zeta^d e_i (free index i, d < phi(k)) and then
t_j (torsion), and the product given by the nested table is Z-bilinear in
them: free coordinates are never reduced, and each torsion coordinate is
only ever reduced mod its order.  So the product of every pair of flat
basis vectors is computed once with the table, and ``TnModel.mul`` is that
pair table compiled by ``table.compile_product``: it sums the products over
the coordinate pairs and reduces each torsion coordinate once at the end,
which gives exactly the table's product.  The torsion x torsion block is a
plain symmetric table over the torsion orders: each prime's part of N_tors
is read off its rows and columns as a radical ring, and 1 + N_tors is the
product of those components' adjoint groups, since products across primes
vanish.

B is A's own free block: its product is A's on elements with no torsion
coordinates, read on the free coordinates, since a product that touches
the torsion ideal stays inside it.  One walk x, x^2, ... of the generator
checks that x^e is free basis vector e for e < f, reads the relation at
x^f and stops at the order M of x (f = 1 takes x = 1, M = 1).  B*_tors is
then computed by embedding B into a product of rings Z[zeta_L], one
component per Galois orbit of the roots of unity zeta_L^s that annihilate
the generator relation, and membership of a candidate root-of-unity tuple
is decided by an exact integer linear solve (the embedding is injective
but generally not surjective).  An automorphism that fixes Z[zeta_k] sends
the value at one component of an orbit to its conjugate at another, so one
component per orbit decides whether an element is a root of unity at all
of them (G. Higman, "The units of group-rings", 1940, for Z[G]).  Every
value in Z[zeta_L] there is a sum of powers zeta_L^s: zeta_k is
zeta_L^(L/k) and the roots of unity are the +-zeta_L^s, of order lcm(2, L)
(L. C. Washington, *Introduction to Cyclotomic Fields*, ch. 2).  So each
value is read off its exponents mod L and reduced mod Phi_L once.

A*_tors is built one Sylow subgroup at a time from the exact sequence.  At
a prime that divides only one of |B*_tors| and |1 + N_tors| the Sylow
subgroup is that group's, so the sequence can fail to split only at a
prime they share; only there are the Sylow p-subgroup's elements formed,
a p-element over each p-element of B*_tors times each element of
1 + (N_tors)_p, and its type recovered from the multiplication.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm, prod

from .abelian import (FinAbGroup, _power, abelian_structure, format_group,
                      group_from_relations, smith_normal_form)
from .caps import TN_UNIT_CANDIDATE_CAP, CapExceeded
from .numtheory import (HypothesisViolated, _pdivmod, cyclotomic_poly,
                        factor_cyclo_mod, factorize, hensel_lift_factor,
                        mult_order, poly_mul)
from .radical import RadicalRing
from .record import Frozen, _set
from .table import InvalidRing, compile_product, pair_entry, pair_table, pairs
from . import presentation


# ---------------------------------------------------------------------------
# base ring Z[zeta_k]


class CycloBase(Frozen):
    """Exact arithmetic in Z[zeta_k] = Z[x]/Phi_k; elements are integer
    tuples of length phi(k).  The conductor k is the whole value."""

    _repr_fields = ("conductor",)

    def __init__(self, conductor: int):
        _set(self, "conductor", conductor)
        _set(self, "phi", list(cyclotomic_poly(conductor)))
        _set(self, "degree", len(self.phi) - 1)

    def zero(self):
        return (0,) * self.degree

    def one(self):
        return self.zeta_power(0)

    def zeta(self):
        return self.zeta_power(1)

    def zeta_power(self, s: int) -> tuple[int, ...]:
        """zeta^s for any s >= 0: x^s mod Phi_k, as Phi_k divides x^k - 1."""
        return self.reduce([0] * (s % self.conductor) + [1])

    def reduce(self, coeffs) -> tuple[int, ...]:
        a = list(coeffs)
        for i in range(len(a) - 1, self.degree - 1, -1):
            c = a[i]
            if c:
                for m, v in enumerate(self.phi):
                    a[i - self.degree + m] -= c * v
        a = a[:self.degree]
        a += [0] * (self.degree - len(a))
        return tuple(a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.reduce(poly_mul(a, b))

    def scale(self, c: int, a):
        return tuple(c * x for x in a)


# ---------------------------------------------------------------------------
# models


class TnModel(Frozen):
    """TN ring model: free power basis over Z[zeta_k] plus torsion symbols.

    ``free_names[0]`` is the multiplicative identity.  ``mult`` holds
    (free coefficients, torsion coordinates) per basis pair, in the
    ``table.pairs`` layout; products that touch a torsion symbol must stay
    inside the torsion ideal.  ``mul`` is the product compiled from that
    table when the model is built (module docstring); like ``name``, it
    takes no part in equality or hashing.
    """

    _repr_fields = ("conductor", "free_names", "tors_names", "tors_orders",
                    "scalar_action", "mult", "name")
    _uncompared = ("name",)

    def __init__(self, conductor: int, free_names: tuple[str, ...],
                 tors_names: tuple[str, ...], tors_orders: tuple[int, ...],
                 scalar_action: tuple[tuple[int, ...], ...],
                 mult: tuple, name: str = ""):
        _set(self, "conductor", conductor)
        _set(self, "free_names", free_names)
        _set(self, "tors_names", tors_names)
        _set(self, "tors_orders", tors_orders)
        # column j: coords of zeta*t_j
        _set(self, "scalar_action", scalar_action)
        # over free then torsion indices, in the ``table.pairs`` layout
        _set(self, "mult", mult)
        _set(self, "name", name)
        _set(self, "base", CycloBase(conductor))
        _check_layout(self)
        _set(self, "_spow", self._scalar_powers())
        shape = ((self.base.degree,) * self.nfree(), self.ntors())
        moduli = (None,) * (self.nfree() * self.base.degree) + tors_orders
        _set(self, "mul", compile_product(_flat_table(self), moduli, shape))
        _set(self, "n_tors", validate_model(self))

    # layout ----------------------------------------------------------------

    def nfree(self) -> int:
        return len(self.free_names)

    def ntors(self) -> int:
        return len(self.tors_names)

    # elements ----------------------------------------------------------------

    def zero(self):
        return ((self.base.zero(),) * self.nfree(), (0,) * self.ntors())

    def one(self):
        return _basis_elements(self)[0]

    def from_torsion(self, coords):
        return ((self.base.zero(),) * self.nfree(), tuple(coords))

    def add(self, x, y):
        free = tuple(self.base.add(a, b) for a, b in zip(x[0], y[0]))
        tors = tuple((a + b) % n for a, b, n in zip(x[1], y[1], self.tors_orders))
        return (free, tors)

    def _scalar_powers(self):
        # row j of powers[d] is zeta^d t_j, for d = 0, ..., phi(k)
        t = self.ntors()
        powers = [[tuple(int(i == j) for i in range(t)) for j in range(t)]]
        for _ in range(self.base.degree):
            powers.append([tuple(
                sum(v * col[m] for v, col in zip(row, self.scalar_action)) % n
                for m, n in enumerate(self.tors_orders)) for row in powers[-1]])
        return powers

    def torsion_coords(self, p: int):
        """Every torsion coordinate tuple of the p-part of N_tors: any
        value on the symbols of order divisible by p, 0 on the others."""
        return iproduct(*(range(n) if n % p == 0 else (0,)
                          for n in self.tors_orders))

    # text format -------------------------------------------------------------

    def to_presentation(self) -> str:
        return presentation.format_tn_document(
            self.name or "model", self.conductor, self.free_names,
            tuple(zip(self.tors_names, self.tors_orders)), self.scalar_action,
            self.mult)

    @classmethod
    def from_presentation(cls, text: str) -> "TnModel":
        doc = presentation.parse_tn_document(text)
        base = CycloBase(doc["conductor"])
        tors_names = tuple(nm for nm, _ in doc["tors_basis"])
        tors_orders = tuple(o for _, o in doc["tors_basis"])
        mult = tuple((tuple(base.reduce(c) for c in free),
                      tuple(v % o for v, o in zip(tors, tors_orders)))
                     for free, tors in doc["mult"])
        return cls(doc["conductor"], doc["free_basis"], tors_names,
                   tors_orders, doc["scalar_action"], mult,
                   name=doc.get("name", ""))


def _check_layout(A: TnModel) -> None:
    """Raise InvalidRing unless every table, order and action has the shape
    the product is compiled from; runs before anything else is derived."""
    f, t, deg = A.nfree(), A.ntors(), A.base.degree
    if f < 1:
        raise InvalidRing("need at least the identity free basis element")
    if len(A.tors_orders) != t or any(o < 2 for o in A.tors_orders):
        raise InvalidRing("every torsion symbol needs an order >= 2")
    if len(A.mult) != len(pairs(f + t)):
        raise InvalidRing("multiplication table size mismatch")
    if any(len(e) != 2 or len(e[0]) != f or len(e[1]) != t
           or any(len(c) != deg for c in e[0]) for e in A.mult):
        raise InvalidRing("multiplication table entry has wrong shape")
    if len(A.scalar_action) != t or any(len(col) != t for col in A.scalar_action):
        raise InvalidRing("scalar action has wrong shape")


def _scalar_apply(A: TnModel, coeff, tors_vec):
    """Action of a base element (poly in zeta) on a torsion vector."""
    acc = [0] * A.ntors()
    for d, c in enumerate(coeff):
        if not c:
            continue
        mat = A._spow[d]
        for j, v in enumerate(tors_vec):
            if v:
                for m, w in enumerate(mat[j]):
                    acc[m] += c * v * w
    return tuple(a % n for a, n in zip(acc, A.tors_orders))


def _flat_table(A: TnModel):
    """Structure constants of the product over the flat Z-basis.

    The table, in the pair layout of ``table.pairs``, holds the product of
    flat basis vectors p <= q: the free coordinates zeta^d e_i come first
    (index i * phi(k) + d, F of them), the torsion coordinates t_j after
    (index F + j, reduced mod its order).  Each constant is computed with
    the nested table, the arithmetic of Z[zeta_k] and the zeta action,
    exactly as the product of those two basis elements would be.
    """
    f, t, base = A.nfree(), A.ntors(), A.base
    deg = base.degree
    F = f * deg
    units = [tuple(int(m == d) for m in range(deg)) for d in range(deg)]
    mult, n = A.mult, f + t

    def product(p, q):
        # p <= q, so p is free whenever one of the two is
        free = [0] * F
        if q >= F:
            j = f + q - F
            if p < F:
                tors = _scalar_apply(A, units[p % deg],
                                     pair_entry(mult, n, p // deg, j)[1])
            else:
                tors = pair_entry(mult, n, f + p - F, j)[1]
        else:
            c = base.mul(units[p % deg], units[q % deg])
            entry_free, entry_tors = pair_entry(mult, n, p // deg, q // deg)
            for e, coeff in enumerate(entry_free):
                free[e * deg:(e + 1) * deg] = base.mul(c, coeff)
            tors = _scalar_apply(A, c, entry_tors)
        return tuple(free) + tuple(v % n for v, n in zip(tors, A.tors_orders))

    return pair_table(F + t, product)


def validate_model(A: TnModel) -> "TorsionIdeal":
    """Raise InvalidRing unless A is a TN model; returns N_tors, which the
    nilpotency check computes.  The shapes were checked by ``_check_layout``
    before the product was compiled; the checks here run through it."""
    f, t = A.nfree(), A.ntors()
    base = A.base
    for j, col in enumerate(A.scalar_action):
        oj = A.tors_orders[j]
        for m, v in enumerate(col):
            if (oj * v) % A.tors_orders[m]:
                raise InvalidRing("scalar action does not respect orders")
    basis = _basis_elements(A)
    # Phi_k(S) must annihilate the torsion part
    for tj in basis[f:]:
        if any(_scalar_apply(A, base.phi, tj[1])):
            raise InvalidRing("Phi_k(scalar action) is nonzero on the torsion part")
    # identity
    one = basis[0]
    for b in basis:
        if A.mul(one, b) != b:
            raise InvalidRing("first free basis element is not an identity")
    # torsion entries stay torsion and respect the additive orders
    for (a, b), (entry_free, entry_tors) in zip(pairs(f + t), A.mult):
        if b >= f:  # a <= b, so b is torsion whenever one of the two is
            if any(any(c) for c in entry_free):
                raise InvalidRing("torsion ideal is not closed")
            kill = A.tors_orders[b - f]
            if a >= f:
                kill = gcd(A.tors_orders[a - f], kill)
            for m, v in enumerate(entry_tors):
                if (kill * v) % A.tors_orders[m]:
                    raise InvalidRing(
                        f"product entry ({a},{b}) breaks bilinearity")
    # zeta-compatibility: (zeta t_j) * b = zeta * (t_j * b) on torsion coords
    zeta = base.zeta()
    for tj in basis[f:]:
        ztj = A.from_torsion(_scalar_apply(A, zeta, tj[1]))
        for b in basis:
            lhs = A.mul(ztj, b)[1]
            rhs = _scalar_apply(A, zeta, A.mul(tj, b)[1])
            if lhs != rhs:
                raise InvalidRing("scalar action is incompatible with the table")
    # associativity on basis triples
    for x in basis:
        for y in basis:
            for z in basis:
                if A.mul(A.mul(x, y), z) != A.mul(x, A.mul(y, z)):
                    raise InvalidRing("associativity fails on a basis triple")
    # nilpotency of the torsion ideal via the extracted radical components
    return nil_torsion(A)


def _basis_elements(A: TnModel):
    f, t = A.nfree(), A.ntors()
    out = []
    for i in range(f):
        free = tuple(A.base.one() if e == i else A.base.zero() for e in range(f))
        out.append((free, (0,) * t))
    for j in range(t):
        out.append(A.from_torsion(tuple(int(m == j) for m in range(t))))
    return out


# ---------------------------------------------------------------------------
# torsion ideal


class TorsionIdeal(Frozen):
    """N_tors of a model, split into single-prime radical rings."""

    _repr_fields = ("components",)

    def __init__(self, components: tuple[RadicalRing, ...]):
        _set(self, "components", components)

    def additive_group(self) -> FinAbGroup:
        g = FinAbGroup.trivial()
        for c in self.components:
            g = g * c.additive_group()
        return g

    def order(self) -> int:
        return prod(c.order() for c in self.components)


def nil_torsion(A: TnModel) -> TorsionIdeal:
    """The torsion nilpotent ideal as per-prime radical rings, read from the
    coordinates.  The torsion part is the direct sum of the Z/o_j, so its
    p-part is spanned by the symbols t_j with p | o_j; sorted by decreasing
    order they are a basis of the component, and its structure constants
    are the torsion parts of the ``mult`` entries on those rows and
    columns.  A product with a coordinate outside its own prime raises
    InvalidRing (bilinearity, checked before, already makes those
    coordinates 0).  Each component is built as a ``RadicalRing``, so
    ``validate_radical`` still checks it, nilpotency included."""
    orders, f, t = A.tors_orders, A.nfree(), A.ntors()
    factors = [factorize(o).pairs for o in orders]
    comps = []
    for p in sorted({p for pp in factors for p, _ in pp}):
        idx = [j for j, o in enumerate(orders) if o % p == 0]
        if any(len(factors[j]) != 1 for j in idx):
            raise InvalidRing("torsion orders must be prime powers")
        idx.sort(key=lambda j: -orders[j])

        def entry(a, b):
            i, j = idx[a], idx[b]
            tors = pair_entry(A.mult, f + t, f + i, f + j)[1]
            vec = [v % n for v, n in zip(tors, orders)]
            if any(v and orders[m] % p for m, v in enumerate(vec)):
                raise InvalidRing(
                    f"product of torsion symbols {i}, {j} leaves the {p}-part")
            return tuple(vec[m] for m in idx)

        exponents = tuple(factors[j][0][1] for j in idx)
        comps.append(RadicalRing(p, exponents, pair_table(len(idx), entry),
                                 name=f"{A.name or 'model'} torsion {p}-part"))
    return TorsionIdeal(tuple(comps))


@lru_cache(maxsize=32)  # bounded, like _torsion_unit_data
def adjoint_of_nil_torsion(A: TnModel) -> FinAbGroup:
    """Group structure of 1 + N_tors, the adjoint group of N_tors, computed
    once per model; the torsion-unit sweep takes its 1 + N_tors from the
    same cache.  Products across primes vanish, so N_tors is the direct
    product of its components and 1 + N_tors that of their adjoint groups."""
    group = FinAbGroup.trivial()
    for c in A.n_tors.components:
        group = group * c.adjoint_group()
    return group


# ---------------------------------------------------------------------------
# the torsion-free quotient B = A / N_tors and its torsion units


_ORDER_SEARCH_CAP = 4096


def _roots_of_unity(conductor: int):
    """All roots of unity of Z[zeta_m], as coordinate tuples: +-zeta^j."""
    base = CycloBase(conductor)
    powers = [base.zeta_power(j) for j in range(conductor)]
    out = set(powers) | {base.neg(z) for z in powers}
    assert len(out) == lcm(2, conductor)
    return sorted(out)


class TorsionUnitData(Frozen):
    """1 + N_tors and the torsion unit groups of B = A/N_tors and of the
    model A."""

    _repr_fields = ("one_plus_n", "b_tors", "a_tors")

    def __init__(self, one_plus_n: FinAbGroup, b_tors: FinAbGroup,
                 a_tors: FinAbGroup):
        _set(self, "one_plus_n", one_plus_n)
        _set(self, "b_tors", b_tors)
        _set(self, "a_tors", a_tors)


# bounded; a round of the benchmark's `oracles` workload sweeps 23 models
@lru_cache(maxsize=32)
def _torsion_unit_data(A: TnModel) -> TorsionUnitData:
    one = A.one()
    no_tors = (0,) * A.ntors()
    one_plus_n = adjoint_of_nil_torsion(A)

    def b_mul(x, y):  # B's product: A's on the free block
        return A.mul((x, no_tors), (y, no_tors))[0]

    b_units = _b_torsion_units(A)
    b_tors = abelian_structure(b_units, b_mul, one[0])

    # A*_tors one Sylow subgroup at a time.  pi: A*_tors -> B*_tors is onto
    # with kernel 1 + N_tors: N is nilpotent, so any preimage of a unit is a
    # unit.  At a prime of only one of the two groups the Sylow subgroup is
    # that group's; only at a shared prime can the sequence fail to split.
    # There, with p^v the p-part of |A*_tors| and e = 1 mod p^v,
    # e = 0 mod |A*_tors| / p^v, u = lift(b)^e is a p-element over each
    # p-element b of B*_tors, and the u (1 + n), n in (N_tors)_p, are the
    # Sylow p-subgroup.
    order = b_tors.order() * one_plus_n.order()
    a_tors = FinAbGroup.trivial()
    for p in sorted({*b_tors.primes(), *one_plus_n.primes()}):
        b_syl, n_syl = b_tors.sylow(p), one_plus_n.sylow(p)
        if n_syl.is_trivial() or b_syl.is_trivial():
            a_tors = a_tors * b_syl * n_syl
            continue
        q = b_syl.order() * n_syl.order()
        e = order // q * pow(order // q, -1, q)
        lifts = [_power(A.mul, one, (b, no_tors), e) for b in b_units
                 if _power(b_mul, one[0], b, b_syl.order()) == one[0]]
        sylow = {A.mul(u, (one[0], n)) for u in lifts
                 for n in A.torsion_coords(p)}
        assert len(sylow) == q, "Sylow subgroup of A*_tors has the wrong order"
        a_tors = a_tors * abelian_structure(sylow, A.mul, one)
    # order bound: u^exp(B*_tors) lands in 1+N_tors, so the exponent of
    # A*_tors divides exp(B*_tors) * exp(1+N_tors)
    assert (b_tors.exponent() * one_plus_n.exponent()) % a_tors.exponent() == 0, \
        "torsion unit order exceeded the exact-sequence bound"
    return TorsionUnitData(one_plus_n, b_tors, a_tors)


def _b_torsion_units(A: TnModel) -> list:
    """Every torsion unit of B = A/N_tors, as free coordinate tuples."""
    base, basis = A.base, _basis_elements(A)
    f, k, deg = A.nfree(), A.conductor, base.degree
    one = basis[0]

    # the one walk of x (module docstring), in A and read on the free
    # block: x^f gives the relation h(x) = x^f - sum tail_e x^e, and M must
    # be finite for B to be a product of cyclotomic rings
    gen = basis[1 if f > 1 else 0]
    power, M = gen, 1
    while True:
        if M < f and power[0] != basis[M][0]:
            raise InvalidRing("free part is not a power basis of one generator")
        if M == f:
            tail = power[0]
        if power[0] == one[0]:
            break
        M += 1
        if M > _ORDER_SEARCH_CAP:
            raise HypothesisViolated("generator has no small multiplicative order")
        power = A.mul(power, gen)

    # components: x -> zeta_M^j = zeta_L^s for one j per Galois orbit with
    # h(zeta_M^j) = 0, where L = lcm(k, ord(zeta_M^j)) and zeta_k =
    # zeta_L^(L/k); h(rho) = rho^f - sum tail_e(zeta_k) rho^e is added up by
    # exponent mod L.  zeta -> zeta^t, t a unit mod lcm(k, M) with t = 1
    # mod k, fixes Z[zeta_k] and so sends component j to component jt mod M
    # and the value there to its conjugate: an element is a root of unity at
    # every component iff it is one at the first j of each orbit, and the
    # embedding stays injective.  By CRT the t mod M are the units t = 1
    # mod gcd(k, M).
    g = gcd(k, M)
    shifts = [t for t in range(1, M + 1)
              if gcd(t, M) == 1 and (t - 1) % g == 0]
    seen = set()
    components = []  # (L, Z[zeta_L], s)
    for j in range(M):
        if j in seen:
            continue
        seen.update(j * t % M for t in shifts)
        L = lcm(k, M // gcd(j, M))
        s = L * j // M
        h = [0] * L
        h[f * s % L] = 1
        for e, coeff in enumerate(tail):
            for d, c in enumerate(coeff):
                h[(d * L // k + e * s) % L] -= c
        big = CycloBase(L)
        if not any(big.reduce(h)):
            components.append((L, big, s))
    if not components:
        raise HypothesisViolated("generator relation has no root-of-unity roots")
    # the sweep tries every tuple of roots of unity, lcm(2, L) per kept
    # component
    candidates = prod(lcm(2, L) for L, _, _ in components)
    if candidates > TN_UNIT_CANDIDATE_CAP:
        raise CapExceeded(
            f"B*_tors sweep of {candidates} root-of-unity tuples is above the "
            f"cap {TN_UNIT_CANDIDATE_CAP}")

    # embedding matrix: column (e, d) is the image of zeta_k^d x^e, stacked
    # over the components
    rows = []
    for L, big, s in components:
        images = [big.zeta_power((e * s + d * L // k) % L)
                  for e in range(f) for d in range(deg)]
        rows.extend(map(list, zip(*images)))

    # candidates: tuples of roots of unity, one per component, kept when
    # U target = S w has an integer solution w; the element is then V w
    diag, U, V = smith_normal_form(rows, want_transforms=True)
    diag += [0] * (len(U) - len(diag))
    found = []
    for combo in iproduct(*(_roots_of_unity(L) for L, _, _ in components)):
        target = [c for u in combo for c in u]
        w = []
        for row, d in zip(U, diag):
            t = sum(a * b for a, b in zip(row, target))
            if (t % d if d else t):
                break
            w.append(t // d if d else 0)
        else:
            z = [sum(a * b for a, b in zip(row, w)) for row in V]
            found.append(tuple(tuple(z[e * deg:(e + 1) * deg])
                               for e in range(f)))
    return found


def torsion_units(A: TnModel) -> FinAbGroup:
    """Isomorphism type of A*_tors.

    Computed through the exact unit sequence 1 -> 1 + N_tors -> A*_tors ->
    B*_tors -> 1, one prime at a time: B*_tors first (cyclotomic embedding,
    one component per Galois orbit).  At a prime of only one of B*_tors and
    1 + N_tors the Sylow subgroup is that group's.  At a shared prime p the
    p-elements over B*_tors, times 1 + (N_tors)_p, are swept, and their
    type is recovered from the multiplication.
    """
    return _torsion_unit_data(A).a_tors


def quotient_torsion_units(A: TnModel) -> FinAbGroup:
    """(A/N_tors)*_tors, computed independently of the model's own units."""
    return _torsion_unit_data(A).b_tors


def sequence_splits(A: TnModel) -> bool:
    """Whether A*_tors = (1 + N_tors) x B*_tors as abstract groups.  The
    Sylow subgroups at a prime of only one of the two groups always match,
    so only a prime they share can make this False."""
    data = _torsion_unit_data(A)
    return data.a_tors == data.one_plus_n * data.b_tors


# ---------------------------------------------------------------------------
# cyclotomic prime-power quotients, from first principles


class PrimePowerIdealQuotient(Frozen):
    """Z[zeta_k] / P^b for the prime P = (q, f(zeta)) picked by one
    irreducible factor f of Phi_k mod q."""

    _repr_fields = ("conductor", "q", "factor", "b")

    def __init__(self, conductor: int, q: int, factor: tuple[int, ...],
                 b: int):
        _set(self, "conductor", conductor)
        _set(self, "q", q)
        _set(self, "factor", factor)
        _set(self, "b", b)


def cyclotomic_quotient_group(Q: PrimePowerIdealQuotient) -> FinAbGroup:
    """Additive group of Z[zeta_k]/P^b, read off the relation lattice of the
    ideal power, then checked against (Z/q^b)^lam.  P^b = (q, f(zeta))^b is
    generated by the b + 1 products q^i f(zeta)^(b - i), so as a lattice it
    is spanned by those generators times zeta^j, j < phi(k).  The ones for
    i = b are the q^b zeta^j, so the others are reduced mod q^b, which keeps
    the entries of the relation matrix below q^b.

    >>> Q = PrimePowerIdealQuotient(4, 3, (1, 0, 1), 1)
    >>> str(cyclotomic_quotient_group(Q))
    'Z/3Z x Z/3Z'
    """
    k, q, b = Q.conductor, Q.q, Q.b
    if gcd(q, k) != 1:
        raise HypothesisViolated(f"gcd({q}, {k}) != 1")
    base = CycloBase(k)
    deg = base.degree
    f_el = base.reduce(list(Q.factor))
    # sanity: the factor must have degree len - 1 and divide Phi_k mod q
    if not Q.factor or Q.factor[-1] % q == 0:
        raise ValueError(f"factor {Q.factor} has leading coefficient 0 mod {q}")
    if _pdivmod(list(base.phi), Q.factor, q)[1]:
        raise ValueError("factor does not divide Phi_k mod q")
    lam = len(Q.factor) - 1

    f_pows = [base.one()]
    for _ in range(b):
        f_pows.append(base.mul(f_pows[-1], f_el))
    gens = [base.scale(q ** i, f_pows[b - i]) for i in range(b)]
    rows = [[q ** b * (i == j) for i in range(deg)] for j in range(deg)]
    for j in range(deg):
        z = base.zeta_power(j)
        rows.extend([c % q ** b for c in base.mul(g, z)] for g in gens)
    result = group_from_relations(rows, deg)
    assert result.free_rank == 0
    expected = FinAbGroup.from_orders([q ** b] * lam)
    assert result.torsion == expected, \
        f"quotient structure {result.torsion} differs from (Z/{q}^{b})^{lam}"
    return result.torsion


# ---------------------------------------------------------------------------
# the rank-zero construction: B = Z[zeta_k], one generator per factor


def build_construction_model(k: int, H: FinAbGroup, name: str = "") -> TnModel:
    """A TN model over Z[zeta_k] whose torsion ideal realises H with square
    -zero generators, so that 1 + N_tors = N_tors = H.

    H must have odd order coprime to k, and each Sylow q-part must be a
    lam(q, k)-th power; otherwise HypothesisViolated names the bad prime.
    """
    if H.order() % 2 == 0:
        raise HypothesisViolated("|H| must be odd")
    if gcd(H.order(), k) != 1:
        raise HypothesisViolated("|H| must be coprime to the conductor")
    blocks = []  # (q, e, lam, lifted factor) one per generator
    for q in H.primes():
        lam = mult_order(q, k)
        for (p, e, mult_) in H.sylow(q).factors:
            if mult_ % lam:
                raise HypothesisViolated(
                    f"Sylow {q}-part is not a lam({q},{k})={lam} power")
            fq = factor_cyclo_mod(k, q)[0]
            lifted = hensel_lift_factor(k, fq, q, e) if e > 1 else fq
            for _ in range(mult_ // lam):
                blocks.append((q, e, lam, lifted))
    t = sum(lam for _, _, lam, _ in blocks)
    tors_names, tors_orders, scalar_cols = [], [], []
    for gi, (q, e, lam, lifted) in enumerate(blocks):
        offset, qe = len(tors_names), q ** e
        for m in range(lam):
            tors_names.append(f"x{gi}_{m}" if lam > 1 else f"x{gi}")
            tors_orders.append(qe)
            col = [0] * t
            if m + 1 < lam:
                col[offset + m + 1] = 1
            else:
                # zeta^lam = -(lifted - x^lam) on this block
                col[offset:offset + lam] = [-c % qe for c in lifted[:lam]]
            scalar_cols.append(tuple(col))
    base = CycloBase(k)

    def entry(a, b):  # basis 0 is u = 1, basis j > 0 is t_(j-1); t_j t_j' = 0
        return ((base.one() if b == 0 else base.zero(),),
                tuple(int(a == 0 and m == b - 1) for m in range(t)))

    model = TnModel(k, ("u",), tuple(tors_names), tuple(tors_orders),
                    tuple(scalar_cols), pair_table(1 + t, entry),
                    name=name or f"construction(k={k}, H={format_group(H)})")
    assert model.n_tors.additive_group() == H, "construction failed to realise H"
    assert adjoint_of_nil_torsion(model) == H
    return model


# ---------------------------------------------------------------------------
# shipped example models


EXAMPLE_NAMES = ("paper-7-1", "paper-7-2-v2", "paper-7-2-v4")


def load_example(name: str) -> TnModel:
    """Load one of the shipped golden model files by name."""
    if name not in EXAMPLE_NAMES:
        raise ValueError(f"unknown example {name!r}; have {EXAMPLE_NAMES}")
    from importlib.resources import files
    text = files("fuchs.data").joinpath(f"{name}.tn").read_text(encoding="utf-8")
    return TnModel.from_presentation(text)
