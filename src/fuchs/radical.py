"""Finite commutative radical rings as explicit structure-constant objects.

A radical ring here is a finite commutative nilpotent ring of prime-power
order: additive group (Z/p^e1) x ... x (Z/p^er), multiplication given by
structure constants.  The circle operation x o y = x + y + xy turns the
underlying set into the adjoint group, isomorphic to 1 + N inside any
unital overring.

The enumeration below produces one representative per isomorphism class at
desk scale and is the oracle used to test the additive-vs-adjoint theory:
for odd p every class of Prüfer rank < p - 1 has isomorphic additive and
adjoint groups, while p = 2 exhibits genuine mismatches (2Z/8Z being the
smallest).  Every type other than (Z/p)^r is lifted p-adically from its
reduction mod p: nilpotency is decided mod p, and each further digit layer
of the table is affine over F_p, so every lifted table is valid.  Tables
are validated by orbit: validity is invariant under transport along an
additive automorphism, so each orbit's minimum, its class representative,
is validated once and vouches for the rest, which are never validated.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, permutations
from itertools import product as iproduct

from .abelian import (FinAbGroup, abelian_structure, pgroup_basis, prufer_rank,
                      row_reduce_mod)
from .caps import RADICAL_ENUM_CAP, CapExceeded, oracle_cap
from .numtheory import HypothesisViolated, factorize, is_prime, is_prime_power
from .record import Frozen, Record, _set
from .table import (InvalidRing, TableRing, associators, compile_transport,
                    pair_entry, pair_table, table_mul)
from . import presentation


class RadicalRing(TableRing, Frozen):
    """Structure constants of a commutative nilpotent ring of order p^k.

    ``exponents`` are the additive orders' exponents (non-increasing), so
    basis element i has additive order p**exponents[i].  ``mult[(i, j)]``
    for i <= j is the coordinate vector of x_i * x_j.  ``name`` takes no
    part in equality or hashing.
    """

    _repr_fields = ("p", "exponents", "mult", "name")
    _uncompared = ("name",)

    def __init__(self, p: int, exponents: tuple[int, ...],
                 mult: tuple[tuple[int, ...], ...],  # pairs (i, j), i <= j
                 name: str = ""):
        _set(self, "p", p)
        _set(self, "exponents", exponents)
        _set(self, "mult", mult)
        _set(self, "name", name)
        _set(self, "_orders", tuple(p ** e for e in exponents))
        validate_radical(self)

    def orders(self) -> tuple[int, ...]:
        return self._orders

    @cached_property
    def circle(self):
        """x o y = x + y + xy, the adjoint group operation, compiled into one
        call on first use (``table.compile_product``)."""
        return self._kernel(circle=True)

    def adjoint_group(self) -> FinAbGroup:
        """Isomorphism type of (N, o), recovered from the elements."""
        return abelian_structure(list(self.elements()), self.circle, self.zero())

    def to_presentation(self) -> str:
        return presentation.format_ring_document(
            "radical", self._orders, self.mult, prime=self.p, name=self.name)

    @classmethod
    def from_presentation(cls, text: str) -> "RadicalRing":
        doc = presentation.parse_ring_document(text, "radical")
        p = doc["prime"]
        exponents = []
        for n in doc["basis_orders"]:
            pe = is_prime_power(n)
            if pe is None or pe[0] != p:
                raise InvalidRing(f"basis order {n} is not a power of {p}")
            exponents.append(pe[1])
        return cls(p, tuple(exponents), doc["mult"], name=doc.get("name", ""))

    def __str__(self):
        label = self.name or "radical ring"
        return f"{label} of order {self.order()} ({self.additive_group()})"


# ---------------------------------------------------------------------------
# validation


def validate_radical(N: RadicalRing) -> None:
    r = len(N.exponents)
    if any(N.exponents[i] < N.exponents[i + 1] for i in range(r - 1)):
        raise InvalidRing("exponents must be non-increasing")
    if any(e < 1 for e in N.exponents):
        raise InvalidRing("exponents must be positive")
    N.check_table()
    if not _is_nilpotent(N):
        raise InvalidRing("ring is not nilpotent")


def _is_nilpotent(N: RadicalRing) -> bool:
    """Whether the table, already checked associative, is nilpotent, read
    off its diagonal.  A finite commutative ring is nilpotent exactly when
    every basis element is: a Z-combination of commuting nilpotents is
    nilpotent, so the ring is nil, and a finite nil ring is nilpotent.
    Conversely, when |N| = p^k the chain N > N^2 > ... drops by a factor of
    at least p at each step until it reaches 0, so b^(k+1) = 0 for every b
    in a nilpotent N.  Each b_i^2 is the diagonal entry T[i,i]; squaring it
    until the exponent reaches 1 + sum(exponents) decides b_i."""
    r = len(N.exponents)
    bound = 1 + sum(N.exponents)
    orders, mult = N.orders(), N.mult
    for i in range(r):
        x = pair_entry(mult, r, i, i)
        exponent = 2
        while any(x) and exponent < bound:
            x = table_mul(orders, mult, x, x)
            exponent *= 2
        if any(x):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration up to isomorphism


def _partitions(k: int):
    """Non-increasing partitions of k."""
    return list(_partitions_below(k, k))


def _partitions_below(rest: int, maxpart: int):
    if rest == 0:
        yield ()
        return
    for part in range(min(rest, maxpart), 0, -1):
        for tail in _partitions_below(rest - part, part):
            yield (part,) + tail


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    fac = [q for q, _ in factorize(p - 1).pairs]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise AssertionError


def _candidate_tables_elementary(p: int, r: int):
    """Flag-adapted candidate tables for the elementary type (1,)*r.

    Candidates are grouped by the power-filtration dimension vector d:
    basis position m carries weight w_m, products of weights (a, b) may only
    touch positions of weight >= a + b, and the filtration must be exact
    (N^i equals the span of the weight->=i positions).  Every isomorphism
    class admits such an adapted basis, and isomorphisms between adapted
    tables preserve the standard flag, so per-d orbit closure under the
    flag-preserving generators partitions candidates into classes.
    Yields (weights, tables) per d, d running over the compositions of r;
    the tables are an iterator that builds each one as it is read.
    """
    for c in range(1, r + 1):
        for cuts in combinations(range(1, r), c - 1):
            weights = [1 + sum(cut <= m for cut in cuts) for m in range(r)]
            slots = pair_table(r, lambda i, j: [
                m for m in range(r) if weights[m] >= weights[i] + weights[j]])
            yield weights, _slot_tables(p, r, slots)


def _slot_tables(p: int, r: int, slots):
    """Every table whose entry q is any vector mod p on the positions
    ``slots[q]`` and 0 elsewhere, one at a time."""
    for assignment in iproduct(*(iproduct(range(p), repeat=len(s)) for s in slots)):
        table = []
        for (vals, free) in zip(assignment, slots):
            vec = [0] * r
            for m, v in zip(free, vals):
                vec[m] = v
            table.append(tuple(vec))
        yield tuple(table)


def _filtration_exact(p: int, table, weights) -> bool:
    """Check N^i == span of positions with weight >= i, for all i, on the
    candidate ``table`` of type (1,)*r: a rank test mod p, as products of
    weights (a, b) only touch weights >= a + b.  N^2 is spanned by the
    products of basis pairs, which are the table's own rows; each further
    N^(i+1) is spanned by the basis times N^i.  The weights are the power
    filtration's dimensions, so a table passes for at most one of them."""
    r = len(weights)
    orders = (p,) * r
    basis = [tuple(int(m == i) for m in range(r)) for i in range(r)]
    for i in range(2, max(weights) + 1):
        rows = table if i == 2 else [table_mul(orders, table, b, g)
                                     for b in basis for g in gens]
        _, gens = row_reduce_mod(rows, p)
        if len(gens) != sum(w >= i for w in weights):
            return False
    return True


def _symmetry_generators(p: int, exponents, weights=None):
    """Generators of the additive automorphisms that preserve a weight flag,
    as (images, inverse_images) pairs of basis-image tuples.

    An automorphism preserves the flag when the image of x_m lies in the
    span of the positions of weight >= weights[m]; without weights every
    automorphism does.  The generators are the scalings of one coordinate
    by g, -1 and 1 + p (g a primitive root mod p; together they generate
    (Z/p^e)*), the swaps of adjacent positions of equal exponent and
    weight, and the transvections x_a -> x_a + p^max(0, e_b - e_a) x_b with
    weight(b) >= weight(a).  Without weights they generate all of
    Aut(Z/p^e1 x ... x Z/p^er), whose matrix description is in Hillar and
    Rhea, "Automorphisms of finite abelian groups", Amer. Math. Monthly 114
    (2007).
    """
    r = len(exponents)
    orders = [p ** e for e in exponents]
    if weights is None:
        weights = (1,) * r

    def basis_map(rows):
        """The identity, except that x_a maps to sum_b rows[a][b] x_b."""
        return tuple(tuple(rows.get(a, {a: 1}).get(b, 0) for b in range(r))
                     for a in range(r))

    gens = []
    g = _primitive_root(p)
    for a, n in enumerate(orders):
        for u in sorted({g % n, -1 % n, (1 + p) % n} - {1}):
            gens.append((basis_map({a: {a: u}}), basis_map({a: {a: pow(u, -1, n)}})))
    for a in range(r - 1):
        if (exponents[a], weights[a]) == (exponents[a + 1], weights[a + 1]):
            swap = basis_map({a: {a + 1: 1}, a + 1: {a: 1}})
            gens.append((swap, swap))
    for a, b in permutations(range(r), 2):
        if weights[b] >= weights[a]:
            c = p ** max(0, exponents[b] - exponents[a])
            gens.append((basis_map({a: {a: 1, b: c}}),
                         basis_map({a: {a: 1, b: -c % orders[b]}})))
    return gens


def _transports(p: int, exponents, weights=None) -> list:
    """The compiled transport (``table.compile_transport``) along each of
    ``_symmetry_generators(p, exponents, weights)``."""
    orders = tuple(p ** e for e in exponents)
    return [compile_transport(orders, images, inverse)
            for images, inverse in _symmetry_generators(p, exponents, weights)]


def _orbit(table, transports) -> set:
    """The orbit of ``table`` under the group generated by the automorphisms
    that ``transports`` carry tables along."""
    orbit = {table}
    frontier = [table]
    while frontier:
        t = frontier.pop()
        for transport in transports:
            t2 = transport(t)
            if t2 not in orbit:
                orbit.add(t2)
                frontier.append(t2)
    return orbit


def _orbit_minima(tables, transports) -> list:
    """The minimum table of each orbit of ``tables`` under the group
    generated by ``transports``, in increasing order.  ``tables`` must be
    closed under that group."""
    unvisited = set(tables)
    minima = []
    for table in sorted(unvisited):
        if table not in unvisited:
            continue
        # every smaller table was visited, so this one is its orbit's minimum
        orbit = _orbit(table, transports)
        assert orbit <= unvisited, "orbit left the candidate tables"
        unvisited -= orbit
        minima.append(table)
    return minima


def _valid_table(p, exponents, table) -> RadicalRing | None:
    try:
        return RadicalRing(p, tuple(exponents), tuple(table))
    except InvalidRing:
        return None


# bounded; each rank's classes serve its own order and, through
# _elementary_tables, every mixed type of that rank
@lru_cache(maxsize=8)
def _enumerate_type_elementary(p: int, r: int) -> tuple[RadicalRing, ...]:
    exponents = (1,) * r
    classes = []
    for weights, tables in _candidate_tables_elementary(p, r):
        # The tables arrive in increasing order, so the first valid table
        # of an orbit is its minimum: only its ring is kept, and its orbit
        # joins the surviving tables.  A later table of a closed orbit is
        # skipped untested, since validity is an isomorphism invariant.  The
        # filtration test passes for one weight vector only, so every other
        # table is validated at most once
        transports = _transports(p, exponents, weights)
        survivors = set()
        for table in tables:
            if table in survivors or not _filtration_exact(p, table, weights):
                continue
            ring = _valid_table(p, exponents, table)
            if ring is not None:
                orbit = _orbit(table, transports)
                assert min(orbit) == table, "candidates out of order"
                survivors |= orbit
                classes.append(ring)
    return tuple(classes)


# bounded; the base tables of one type are reused by every type of that rank
@lru_cache(maxsize=8)
def _elementary_tables(p: int, r: int) -> tuple:
    """Every valid table of type (1,)*r, sorted: the orbits of the
    elementary classes under all additive automorphisms."""
    transports = _transports(p, (1,) * r)
    orbits = [_orbit(N.mult, transports) for N in _enumerate_type_elementary(p, r)]
    return tuple(sorted(set().union(*orbits)))


def _lifts(p: int, exponents, base) -> list[tuple]:
    """Every valid table of type ``exponents`` reducing to the elementary
    table ``base`` mod p, one F_p solve per digit (``_enumerate_type_mixed``)."""
    r = len(exponents)
    orders = [p ** e for e in exponents]
    # bilinearity: entry (q, m) is a multiple of p^low[q][m]
    low = pair_table(r, lambda i, j: [max(0, e - min(exponents[i], exponents[j]))
                                      for e in exponents])
    if any(v and low[q][m] for q, vec in enumerate(base) for m, v in enumerate(vec)):
        return []
    tables = [base]
    for d in range(1, exponents[0]):
        free = [(q, m) for q in range(len(base)) for m in range(r)
                if low[q][m] <= d < exponents[m]]
        live = [m for m in range(r) if exponents[m] > d]
        mod = p ** (d + 1)

        def associator(t):
            return [v[m] % mod for _, v in associators(orders, t) for m in live]

        # the linear part: digit d of the associator as one digit d moves
        at_base = associator(base)
        columns = [[(u - v) % mod // p ** d for u, v in
                    zip(associator(_shifted(base, {(q, m): p ** d})), at_base)]
                   for q, m in free]
        lifts = []
        for t in tables:
            system = [[col[i] for col in columns] + [-v % mod // p ** d]
                      for i, v in enumerate(associator(t))]
            pivots, reduced = row_reduce_mod(system, p)
            if len(free) in pivots:
                continue
            kernel = [f for f in range(len(free)) if f not in pivots]
            for choice in iproduct(range(p), repeat=len(kernel)):
                x = dict(zip(kernel, choice))
                for c, row in zip(pivots, reduced):
                    x[c] = (row[-1] - sum(row[f] * x[f] for f in kernel)) % p
                lifts.append(_shifted(t, {pos: x[f] * p ** d for f, pos in enumerate(free)}))
        tables = lifts
    return tables


def _shifted(table, steps) -> tuple:
    """``table`` with ``steps[(q, m)]`` added to coordinate m of entry q."""
    return tuple(tuple(v + steps.get((q, m), 0) for m, v in enumerate(vec))
                 for q, vec in enumerate(table))


def _enumerate_type_mixed(p: int, exponents) -> list[RadicalRing]:
    """Classes of an additive type that is not (1,)*r, by p-adic lifting.

    Nilpotency is decided mod p (N^c in pN gives N^(ck) in p^k N), so the
    lifting starts from the valid elementary tables.  Each further p-adic
    digit d of all entries is an affine layer: for T' associative mod p^d,
    the associator of T' + p^d D mod p^(d+1) is that of T' plus p^d times a
    linear function of D (the D*D term carries p^(2d)), so one F_p solve per
    layer gives exactly the associative lifts.

    Only each orbit's minimum is validated, as its class representative.
    That vouches for the whole orbit: validity is invariant under transport
    along an additive automorphism (``compile_transport`` refuses any other
    map), and ``_orbit_minima`` asserts that every orbit stays inside the
    lifts."""
    # the lifts are all the valid tables, so they are closed under every
    # additive automorphism
    lifts = [t for base in _elementary_tables(p, len(exponents))
             for t in _lifts(p, exponents, base)]
    return [RadicalRing(p, exponents, t)
            for t in _orbit_minima(lifts, _transports(p, exponents))]


# bounded; a round of the benchmark's `oracles` workload enumerates 8 orders
@lru_cache(maxsize=32)
def _enumerate_cached(p: int, k: int) -> tuple[RadicalRing, ...]:
    out = []
    for parts in _partitions(k):
        if parts[0] == 1:
            out.extend(_enumerate_type_elementary(p, len(parts)))
        else:
            out.extend(_enumerate_type_mixed(p, parts))
    out.sort(key=lambda N: (N.exponents, N.mult))
    return tuple(out)


def enumerate_radical_rings(p: int, k: int) -> list[RadicalRing]:
    """One representative per isomorphism class of commutative radical rings
    of order p**k, sorted by additive type and table.  p must be prime
    and k at least 1 (HypothesisViolated otherwise).

    >>> len(enumerate_radical_rings(3, 1))
    1
    >>> len(enumerate_radical_rings(2, 2))
    4
    """
    if not is_prime(p):
        raise HypothesisViolated(f"p = {p} is not a prime")
    if k < 1:
        raise HypothesisViolated(f"exponent k = {k} must be at least 1")
    cap = oracle_cap(RADICAL_ENUM_CAP)
    if p ** k > cap:
        raise CapExceeded(f"order {p ** k} exceeds the enumeration cap {cap}")
    return list(_enumerate_cached(p, k))


# ---------------------------------------------------------------------------
# theorem oracles


class SmallTheoremReport(Record):
    """Per-class comparison of additive and adjoint group structure."""

    _repr_fields = ("p", "k", "entries")

    def __init__(self, p: int, k: int, entries: list[dict] | None = None):
        self.p = p
        self.k = k
        self.entries = [] if entries is None else entries

    @property
    def violations(self) -> list[dict]:
        """Small classes (Prank < p-1) whose adjoint differs: must be empty."""
        return [e for e in self.entries if e["small"] and not e["isomorphic"]]

    @property
    def mismatches(self) -> list[dict]:
        """All classes with additive and adjoint groups non-isomorphic."""
        return [e for e in self.entries if not e["isomorphic"]]


def check_small_theorem(p: int, k: int) -> SmallTheoremReport:
    """Run the additive-vs-adjoint comparison over a full enumeration.

    For odd p, every class with Prüfer rank < p - 1 must have isomorphic
    additive and adjoint groups; no class can satisfy that rank bound for
    p = 2, but the mismatching classes are reported so the p = 2 gap is
    visible (2Z/8Z is the classic example).
    """
    report = SmallTheoremReport(p, k)
    for ring in enumerate_radical_rings(p, k):
        additive = ring.additive_group()
        adjoint = ring.adjoint_group()
        rank = prufer_rank(additive, p)
        report.entries.append({
            "ring": ring,
            "additive": additive,
            "adjoint": adjoint,
            "prank": rank,
            "small": rank < p - 1,
            "isomorphic": additive == adjoint,
        })
    return report


def check_byott(N: RadicalRing) -> bool:
    """Cyclicity implication on a 2-power radical ring of order >= 8:
    if the adjoint group is cyclic then so is the additive group."""
    if N.p != 2 or N.order() < 8:
        raise HypothesisViolated("requires order 2^v with v >= 3")
    if not N.adjoint_group().is_cyclic():
        return True
    return N.additive_group().is_cyclic()


# ---------------------------------------------------------------------------
# extraction from a black-box multiplication (finring.maximal_ideal_ring)


def radical_ring_from_mult(elements, add, zero, mul, p: int, name: str = "") -> RadicalRing:
    """Build a RadicalRing from explicit elements of an ambient ring.

    ``elements`` must be the full underlying set (a p-group under ``add``)
    closed under ``mul``; a basis is peeled off and the structure constants
    are re-expressed in basis coordinates.
    """
    elements = sorted(set(elements))
    if len(elements) == 1:
        return RadicalRing(p, (), (), name=name)

    basis = pgroup_basis(elements, add, zero, p)
    basis.sort(key=lambda bo: -bo[1])
    orders = [o for _, o in basis]
    exponents = [is_prime_power(o)[1] for o in orders]
    coords = {zero: ()}
    for b, o in basis:  # one addition per new point
        layer = {}
        for x, combo in coords.items():
            for c in range(o):
                if c:
                    x = add(x, b)
                layer[x] = combo + (c,)
        coords = layer
    assert len(coords) == len(elements)
    mult = pair_table(len(basis), lambda i, j: coords[mul(basis[i][0], basis[j][0])])
    return RadicalRing(p, tuple(exponents), mult, name=name)
