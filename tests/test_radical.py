"""Radical ring arithmetic, enumeration completeness, and the theorem
oracles over the enumerated classes."""

from __future__ import annotations

import gc
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct
from math import prod

import pytest

import fuchs.radical as rad
from fuchs.abelian import FinAbGroup, row_reduce_mod
from fuchs.numtheory import cyclotomic_poly
from fuchs.caps import CapExceeded
from fuchs.numtheory import HypothesisViolated
from fuchs.radical import (RadicalRing, check_byott, check_small_theorem,
                           enumerate_radical_rings, radical_ring_from_mult)
from fuchs.table import (InvalidRing, _associator_kernel, _define, _transport_factory,
                         _transport_kernel, associators, compile_transport, table_mul)
from fuchs.tnlab import _torsion_unit_data


def G(*orders):
    return FinAbGroup.from_orders(orders)


TWO_Z8 = RadicalRing(2, (2,), ((2,),))       # 2Z/8Z: x of order 4, x^2 = 2x
THREE_Z27 = RadicalRing(3, (2,), ((3,),))    # 3Z/27Z
ZERO_F3 = RadicalRing(3, (1,), ((0,),))


class TestArithmetic:
    def test_circle_identity_and_inverse(self):
        assert TWO_Z8.circle((1,), (0,)) == (1,)
        # 2 o 2 = 2 + 2 + 4 = 8 = 0 in Z/8, i.e. coordinates (1,) o (1,) = 0
        assert TWO_Z8.circle((1,), (1,)) == (0,)
        assert ZERO_F3.circle((1,), (2,)) == (0,)

    def test_adjoint_examples(self):
        assert ZERO_F3.adjoint_group() == G(3)
        assert TWO_Z8.adjoint_group() == G(2, 2)
        assert TWO_Z8.additive_group() == G(4)
        assert THREE_Z27.adjoint_group() == G(9)
        assert THREE_Z27.additive_group() == G(9)

    def test_group_axioms_brute_force(self):
        for N in enumerate_radical_rings(2, 3) + enumerate_radical_rings(5, 2):
            elems = list(N.elements())
            zero = N.zero()
            assert all(N.circle(x, zero) == x for x in elems)
            inverses = 0
            for x in elems:
                inverses += any(N.circle(x, y) == zero for y in elems)
            assert inverses == len(elems)
            # associativity of circle on a sample
            rng = random.Random(1)
            for _ in range(30):
                x, y, z = (rng.choice(elems) for _ in range(3))
                assert N.circle(N.circle(x, y), z) == N.circle(x, N.circle(y, z))

    def test_validation_rejects_bad_tables(self):
        with pytest.raises(InvalidRing):  # x^2 = x is not nilpotent
            RadicalRing(2, (1,), ((1,),))
        with pytest.raises(InvalidRing):  # bilinearity: 2*(x1 x2) must vanish
            RadicalRing(2, (2, 1), ((0, 0), (1, 0), (0, 0)))

    def test_names_the_first_failing_triple(self):
        # the check visits only the triples a < c, yet must name the first
        # failing one in the order of all triples (i, j, k)
        rng = random.Random(3)
        for p, exponents, count in [(2, (1, 1, 1), 3000), (3, (2, 1), 2187)]:
            orders = [p ** e for e in exponents]
            r = len(orders)
            basis = [tuple(int(m == i) for m in range(r)) for i in range(r)]
            _, slots = _mixed_type_candidates(p, exponents)
            raws = list(iproduct(*(iproduct(*pc) for pc in slots)))
            for table in rng.sample(raws, count):
                def mul(x, y):
                    return table_mul(orders, table, x, y)
                first = next(((i, j, k) for i in range(r) for j in range(r)
                              for k in range(r)
                              if mul(mul(basis[i], basis[j]), basis[k])
                              != mul(basis[i], mul(basis[j], basis[k]))), None)
                try:
                    RadicalRing(p, exponents, table)
                    message = None
                except InvalidRing as exc:
                    message = str(exc)
                if first is None:
                    assert message in (None, "ring is not nilpotent"), table
                else:
                    assert message == "associativity fails at ({},{},{})".format(
                        *first), table


class _RawTable:
    """What the nilpotency check reads off a ring, for a table that is not
    validated first (a ``RadicalRing`` would reject a non-nilpotent one)."""

    def __init__(self, p, exponents, mult):
        self.exponents, self.mult = exponents, mult
        self._orders = tuple(p ** e for e in exponents)

    def orders(self):
        return self._orders

    def basis(self):
        r = len(self._orders)
        return [tuple(int(m == i) for m in range(r)) for i in range(r)]


def _reference_is_nilpotent(N) -> bool:
    """Independent reference for ``radical._is_nilpotent``: multiply out
    N, N^2, ... from the basis until the power is 0 or its bound is
    passed."""
    basis = N.basis()
    gens = list(basis)
    bound = 1 + sum(N.exponents)
    orders, mult = N.orders(), N.mult
    for _ in range(bound):
        gens = [table_mul(orders, mult, b, g) for b in basis for g in gens]
        gens = sorted({g for g in gens if any(g)})
        if not gens:
            return True
    return False


class TestNilpotency:
    @staticmethod
    def _compare(p, exponents, tables) -> Counter:
        """Compare on the associative ``tables``; count the verdicts."""
        orders = [p ** e for e in exponents]
        verdicts = Counter()
        for table in tables:
            if any(any(v) for _, v in associators(orders, table)):
                continue
            N = _RawTable(p, exponents, table)
            nilpotent = _reference_is_nilpotent(N)
            assert rad._is_nilpotent(N) == nilpotent, (p, exponents, table)
            verdicts[nilpotent] += 1
        return verdicts

    def test_every_associative_table_of_rank_two(self):
        for p in (2, 3):
            for exponents in ((1, 1), (2, 1)):
                _, slots = _mixed_type_candidates(p, exponents)
                raws = iproduct(*(iproduct(*pc) for pc in slots))
                verdicts = self._compare(p, exponents, raws)
                assert verdicts[True] and verdicts[False], (p, exponents)

    def test_seeded_raw_tables_of_rank_three(self):
        _, slots = _mixed_type_candidates(2, (1, 1, 1))
        raws = list(iproduct(*(iproduct(*pc) for pc in slots)))
        verdicts = self._compare(2, (1, 1, 1), random.Random(3).sample(raws, 3000))
        assert verdicts[True] and verdicts[False]


def _reference_filtration_exact(p, table, weights) -> bool:
    """Independent reference for ``radical._filtration_exact``: every power
    N^i, N^2 included, from products of the basis with N^(i-1)."""
    r = len(weights)
    orders = (p,) * r
    basis = [tuple(int(m == i) for m in range(r)) for i in range(r)]
    gens = basis
    for i in range(2, max(weights) + 1):
        _, gens = row_reduce_mod([table_mul(orders, table, b, g)
                                  for b in basis for g in gens], p)
        if len(gens) != sum(w >= i for w in weights):
            return False
    return True


class TestFiltration:
    def test_every_candidate_up_to_rank_four(self):
        for p, r in ((2, 3), (3, 3), (2, 4)):
            exact = 0
            for weights, tables in rad._candidate_tables_elementary(p, r):
                for table in tables:
                    got = rad._filtration_exact(p, table, weights)
                    assert got == _reference_filtration_exact(p, table, weights), \
                        (p, weights, table)
                    exact += got
            assert exact, (p, r)


def span(N: RadicalRing, gens) -> frozenset:
    """The additive subgroup of N generated by ``gens``."""
    seen = {N.zero()}
    frontier = [N.zero()]
    gens = [g for g in gens if any(g)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = N.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def power_ideal_chain(N: RadicalRing) -> list[frozenset]:
    """[N^1, N^2, ...] as element sets, down to (and excluding) zero."""
    basis = N.basis()
    chain = []
    gens = list(basis)
    while True:
        ideal = span(N, gens)
        if len(ideal) == 1:
            break
        chain.append(ideal)
        gens = sorted({N.mul(b, g) for b in basis for g in gens})
    return chain


class TestEnumeration:
    def test_order_p_single_class(self):
        for p in (2, 3, 5):
            rings = enumerate_radical_rings(p, 1)
            assert len(rings) == 1
            assert all(v == 0 for c in rings[0].mult for v in c)

    def test_order_four_classes(self):
        rings = enumerate_radical_rings(2, 2)
        assert len(rings) == 4
        types = sorted((N.exponents, N.adjoint_group() == N.additive_group())
                       for N in rings)
        # zero-mult Z/4, 2Z/8Z, zero-mult (Z/2)^2, and t F_2[t]/(t^3)
        assert ((2,), True) in types and ((2,), False) in types
        assert ((1, 1), True) in types and ((1, 1), False) in types

    def test_soundness_every_output_validates(self):
        for (p, k) in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
            for N in enumerate_radical_rings(p, k):
                RadicalRing(N.p, N.exponents, N.mult)  # re-runs the full suite
                assert N.order() == p ** k

    def test_pairwise_non_isomorphic_by_invariants(self):
        # cheap invariant separation: (additive, adjoint, squares-to-zero count)
        for (p, k) in [(2, 3), (3, 2)]:
            seen = {}
            for N in enumerate_radical_rings(p, k):
                chain = tuple(len(s) for s in power_ideal_chain(N))
                sq0 = sum(1 for x in N.elements() if N.mul(x, x) == N.zero())
                key = (N.additive_group(), N.adjoint_group(), chain, sq0)
                seen.setdefault(key, []).append(N)
            # invariants need not separate everything, but no two entries
            # sharing all invariants may be isomorphic via a brute search
            for group in seen.values():
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        assert not _brute_isomorphic(group[i], group[j])

    def test_completeness_against_unreduced_brute_force(self):
        # spec invariant: cross-check (2,2), (2,3), (3,2) against a
        # no-assumption enumeration of every valid table
        for (p, k) in [(2, 2), (3, 2), (2, 3)]:
            total = 0
            for parts in rad._partitions(k):
                total += _brute_classes(p, parts)
            assert total == len(enumerate_radical_rings(p, k)), (p, k)

    def test_cap(self, monkeypatch):
        with pytest.raises(CapExceeded):
            enumerate_radical_rings(5, 5)
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "8")
        with pytest.raises(CapExceeded):
            enumerate_radical_rings(2, 4)

    @pytest.mark.parametrize("p, k, named", [
        (2, 0, "k = 0"), (2, -2, "k = -2"), (6, 2, "p = 6"), (1, 2, "p = 1")])
    def test_rejects_a_non_prime_or_an_exponent_below_1(self, p, k, named):
        with pytest.raises(HypothesisViolated, match=named):
            enumerate_radical_rings(p, k)

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "8")
        with pytest.raises(CapExceeded):
            enumerate_radical_rings(3, 2)
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "100")
        assert len(enumerate_radical_rings(3, 2)) == 4

    @pytest.mark.parametrize("value, message", [
        ("abc", "must be an integer"), ("2.5", "must be an integer"),
        ("-3", "must be at least 1"), ("0", "must be at least 1")])
    def test_env_var_that_is_no_cap_names_the_variable(self, monkeypatch,
                                                      value, message):
        monkeypatch.setenv("FUCHS_ORACLE_CAP", value)
        with pytest.raises(ValueError, match=f"FUCHS_ORACLE_CAP {message}"):
            enumerate_radical_rings(2, 1)


def _mixed_type_candidates(p, exponents):
    """Every table of the additive type that bilinearity allows, as the
    value ranges of each coordinate of each pair's product."""
    r = len(exponents)
    orders = [p ** e for e in exponents]
    pairs = [(i, j) for i in range(r) for j in range(i, r)]
    slot_values = []
    for (i, j) in pairs:
        lo = min(exponents[i], exponents[j])
        per_coord = []
        for m in range(r):
            step = p ** max(0, exponents[m] - lo)
            per_coord.append(range(0, orders[m], step))
        slot_values.append(per_coord)
    return pairs, slot_values


def _brute_valid_tables(p, exponents, slots=None) -> list:
    """Every raw table from ``slots`` (default: all that bilinearity
    allows) that passes validation."""
    if slots is None:
        _, slots = _mixed_type_candidates(p, exponents)
    return [combo for combo in iproduct(*(iproduct(*pc) for pc in slots))
            if rad._valid_table(p, exponents, combo) is not None]


def _brute_classes(p, exponents) -> int:
    valid = _brute_valid_tables(p, exponents)
    autos = _brute_automorphisms(p, exponents)
    visited = set()
    classes = 0
    for table in sorted(valid):
        if table in visited:
            continue
        visited |= {_brute_transport(p, exponents, table, a) for a in autos}
        classes += 1
    return classes


def _brute_isomorphic(N: RadicalRing, M: RadicalRing) -> bool:
    if N.exponents != M.exponents:
        return False
    autos = _brute_automorphisms(N.p, N.exponents)
    return any(_brute_transport(N.p, N.exponents, N.mult, a) == M.mult
               for a in autos)


# The brute-force reference below lists every additive automorphism and
# inverts each one over all of N; the enumerator only uses generators.


# shared by every test of this module that lists a type's automorphisms;
# the 41 types of `_types_up_to(125)` are all it ever sees
@lru_cache(maxsize=64)
def _brute_automorphisms(p: int, exponents) -> tuple:
    """All additive automorphisms of the type, as basis-image tuples."""
    r = len(exponents)
    orders = [p ** e for e in exponents]
    all_elems = list(iproduct(*(range(n) for n in orders)))
    by_max_order = {}
    for e in sorted(set(exponents)):
        killer = p ** e
        by_max_order[e] = [v for v in all_elems
                           if all((killer * a) % n == 0 for a, n in zip(v, orders))]
    total = prod(orders)
    out = []
    for images in iproduct(*(by_max_order[e] for e in exponents)):
        seen = set()
        ok = True
        for v in all_elems:
            acc = [0] * r
            for j, a in enumerate(v):
                if a:
                    for m, b in enumerate(images[j]):
                        acc[m] += a * b
            w = tuple(x % n for x, n in zip(acc, orders))
            if w in seen:
                ok = False
                break
            seen.add(w)
        if ok and len(seen) == total:
            out.append(tuple(tuple(im) for im in images))
    return tuple(out)


def _brute_transport(p, exponents, table, images):
    """Transport a table along an automorphism, inverting it over all of N."""
    r = len(exponents)
    orders = [p ** e for e in exponents]

    def phi(v):
        acc = [0] * r
        for j, a in enumerate(v):
            if a:
                for m, b in enumerate(images[j]):
                    acc[m] += a * b
        return tuple(x % n for x, n in zip(acc, orders))

    inv = {phi(v): v for v in iproduct(*(range(n) for n in orders))}
    assert len(inv) == prod(orders), "not an automorphism"
    return tuple(inv[table_mul(orders, table, images[i], images[j])]
                 for i in range(r) for j in range(i, r))


def _apply_automorphism(orders, table, images, inverse):
    """Transport a structure-constant table along an additive automorphism,
    one ``table_mul`` per entry: the reference for ``compile_transport``.

    ``images[j]`` is the coordinate vector of the image of basis vector j and
    ``inverse[j]`` that of its preimage.  Returns the table of the isomorphic
    ring in which the new basis element i multiplies as the old images did:
    each product images[i] * images[j] is pulled back through ``inverse``.
    """
    r = len(orders)
    out = []
    for i in range(r):
        for j in range(i, r):
            acc = [0] * r
            for m, a in enumerate(table_mul(orders, table, images[i], images[j])):
                if a:
                    for t, b in enumerate(inverse[m]):
                        acc[t] += a * b
            out.append(tuple(x % n for x, n in zip(acc, orders)))
    return tuple(out)


def _compose(orders, f, g):
    """The basis images of f after g."""
    out = []
    for row in g:
        acc = [0] * len(orders)
        for m, c in enumerate(row):
            if c:
                for t, v in enumerate(f[m]):
                    acc[t] += c * v
        out.append(tuple(x % n for x, n in zip(acc, orders)))
    return tuple(out)


def _generated_group(p, exponents, gens) -> set:
    orders = [p ** e for e in exponents]
    r = len(orders)
    identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    group = {identity}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for images, _ in gens:
            b = _compose(orders, a, images)  # images is sparse
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def _types_up_to(bound):
    """(p, additive type) for every order p^k <= bound whose brute-force
    automorphism search (candidate images times |N|) is at most 2^20."""
    for p in (2, 3, 5, 7, 11):
        k = 1
        while p ** k <= bound:
            for parts in rad._partitions(k):
                images = prod(p ** sum(min(e, f) for f in parts) for e in parts)
                if images * p ** k <= 2 ** 20:
                    yield p, parts
            k += 1


class TestLifting:
    def test_lifts_are_exactly_the_valid_tables(self):
        # every raw table is validated; the lifts of all elementary tables
        # must be the valid ones, each exactly once
        for p, exponents in [(2, (2,)), (2, (3,)), (2, (2, 1)), (2, (3, 1)),
                             (2, (2, 2)), (3, (2,)), (3, (2, 1))]:
            lifted = [t for base in rad._elementary_tables(p, len(exponents))
                      for t in rad._lifts(p, exponents, base)]
            assert len(lifted) == len(set(lifted)), (p, exponents)
            assert set(lifted) == set(_brute_valid_tables(p, exponents)), \
                (p, exponents)

    def test_seeded_slice_of_type_211_at_3(self):
        # for sampled bases mod 3, the raw tables reducing to the base that
        # pass validation are exactly the solver's lifts
        p, exponents = 3, (2, 1, 1)
        _, slots = _mixed_type_candidates(p, exponents)
        bases = [b for b in rad._elementary_tables(p, 3)
                 if rad._lifts(p, exponents, b)]
        rng = random.Random(11)
        sample = rng.sample(bases, 6) + rng.sample(rad._elementary_tables(p, 3), 6)
        for base in sample:
            above = [[[v for v in values if v % p == base[q][m]]
                      for m, values in enumerate(per_coord)]
                     for q, per_coord in enumerate(slots)]
            assert set(_brute_valid_tables(p, exponents, above)) == \
                set(rad._lifts(p, exponents, base)), base

    def test_type_counts(self):
        for p, exponents, count in [(2, (2, 1, 1), 35), (2, (3, 1, 1), 57),
                                    (3, (2, 2), 28), (3, (2, 1, 1), 39)]:
            assert len(rad._enumerate_type_mixed(p, exponents)) == count


class TestSymmetryGenerators:
    def test_inverses(self):
        for p, exponents in [(2, (3, 1)), (3, (2, 1, 1)), (5, (2, 1)), (2, (1, 1, 1))]:
            orders = [p ** e for e in exponents]
            identity = tuple(tuple(int(i == j) for j in range(len(orders)))
                             for i in range(len(orders)))
            for images, inverse in rad._symmetry_generators(p, exponents):
                assert _compose(orders, images, inverse) == identity
                assert _compose(orders, inverse, images) == identity

    def test_generate_every_automorphism(self):
        types = list(_types_up_to(125))
        assert all((2, parts) in types for parts in rad._partitions(4))
        for p, exponents in types:
            closure = _generated_group(
                p, exponents, rad._symmetry_generators(p, exponents))
            assert closure == set(_brute_automorphisms(p, exponents)), (p, exponents)

    def test_generate_every_flag_preserving_automorphism(self):
        for p in (2, 3):
            for r in (1, 2, 3):
                exponents = (1,) * r
                autos = _brute_automorphisms(p, exponents)
                for weights, _ in rad._candidate_tables_elementary(p, r):
                    flagged = {a for a in autos
                               if all(not a[m][t] or weights[t] >= weights[m]
                                      for m in range(r) for t in range(r))}
                    gens = rad._symmetry_generators(p, exponents, weights)
                    assert _generated_group(p, exponents, gens) == flagged, \
                        (p, weights)


def _weight_vectors(r):
    """The weight vectors of the flag-adapted candidates of rank r, one per
    composition of r (as in ``_candidate_tables_elementary``)."""
    for c in range(1, r + 1):
        for cuts in combinations(range(1, r), c - 1):
            yield tuple(1 + sum(cut <= m for cut in cuts) for m in range(r))


def _sampled_tables(p, exponents, rng, count=6):
    """Up to ``count`` valid tables of the type, sampled.  Where the valid
    tables of (1,)*r are quick to list (r <= 3 or p^r <= 16) they are the
    elementary tables or the lifts of a sample of them; above that, a valid
    table of the type without its last coordinate is extended by a
    coordinate that multiplies to zero, then moved by a random word in the
    generators."""
    r = len(exponents)
    orders = [p ** e for e in exponents]
    if r <= 3 or p ** r <= 16:
        bases = rad._elementary_tables(p, r)
        if exponents == (1,) * r:
            pool = list(bases)
        else:
            pool = [t for base in rng.sample(bases, min(len(bases), 30))
                    for t in rad._lifts(p, exponents, base)]
        return rng.sample(pool, min(count, len(pool)))
    gens = rad._symmetry_generators(p, exponents)
    out = []
    for smaller in _sampled_tables(p, exponents[:-1], rng, count):
        rows = iter(smaller)
        table = tuple(next(rows) + (0,) if j < r - 1 else (0,) * r
                      for i in range(r) for j in range(i, r))
        for _ in range(30):
            table = _apply_automorphism(orders, table, *rng.choice(gens))
        out.append(table)
    return out


class TestTransportKernels:
    def test_every_generator_of_every_type_up_to_125(self):
        rng = random.Random(12)
        types = [(p, parts) for p in (2, 3, 5, 7, 11)
                 for k in range(1, 8) if p ** k <= 125
                 for parts in rad._partitions(k)]
        assert len(types) == 52
        for p, exponents in types:
            orders = tuple(p ** e for e in exponents)
            r = len(exponents)
            gens = set(rad._symmetry_generators(p, exponents))
            if exponents == (1,) * r:
                # the flag-preserving generators are among the others
                for weights in _weight_vectors(r):
                    assert set(rad._symmetry_generators(p, exponents, weights)) <= gens
            tables = _sampled_tables(p, exponents, rng)
            assert tables and len(set(tables)) == len(tables), (p, exponents)
            for images, inverse in gens:
                transport = compile_transport(orders, images, inverse)
                for k, table in enumerate(tables):
                    moved = transport(table)
                    assert moved == _apply_automorphism(orders, table, images, inverse), \
                        (p, exponents, table, images)
                    if k < 2:
                        assert moved == _brute_transport(p, exponents, table, images), \
                            (p, exponents, table, images)

    def test_kernels_of_one_shape_keep_their_own_coefficients(self, monkeypatch):
        # each group shares which coefficients are nonzero and which are 1,
        # but not the coefficients or the orders
        groups = [
            # x_1 -> u x_1 on (Z/p)^2, u not 0 or +-1 mod p
            [((p, p), ((u, 0), (0, 1)), ((pow(u, -1, p), 0), (0, 1)))
             for p, u in ((5, 2), (5, 3), (7, 3), (11, 2), (13, 6))],
            # x_1 -> x_1 + x_2 on (Z/p)^2, p >= 5
            [((p, p), ((1, 1), (0, 1)), ((1, p - 1), (0, 1))) for p in (5, 7, 11, 13)],
            # x_1 -> u x_1 on Z/p^2 x Z/p
            [((p * p, p), ((u, 0), (0, 1)), ((pow(u, -1, p * p), 0), (0, 1)))
             for p, u in ((5, 2), (7, 3), (11, 2))],
        ]
        compiles = []

        def counting(*args):
            compiles.append(args)
            return _define(*args)

        monkeypatch.setattr("fuchs.table._define", counting)
        rng = random.Random(26)
        for group in groups:
            _transport_kernel.cache_clear()
            _transport_factory.cache_clear()
            compiles.clear()
            kernels = [compile_transport(*maps) for maps in group]
            # the first map compiles the shape, the others only bind values
            assert len(compiles) == 1, group
            for (orders, images, inverse), transport in zip(group, kernels):
                for _ in range(20):
                    raw = tuple(tuple(rng.randrange(n) for n in orders)
                                for _ in range(3))
                    assert transport(raw) == \
                        _apply_automorphism(orders, raw, images, inverse), (orders, images)


class TestValidatedOnce:
    ORDERS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (5, 3))

    def test_no_table_validated_twice(self, monkeypatch):
        # the radical orders of the benchmark's `oracles` workload, on cold
        # caches: only class representatives, and candidates that fail, are
        # validated, each once
        seen, failed = Counter(), set()
        inner = rad.validate_radical

        def counting(N):
            key = (N.p, N.exponents, N.mult)
            seen[key] += 1
            try:
                inner(N)
            except InvalidRing:
                failed.add(key)
                raise

        monkeypatch.setattr(rad, "validate_radical", counting)
        for cached in (rad._enumerate_cached, rad._enumerate_type_elementary,
                       rad._elementary_tables):
            cached.cache_clear()
        for p, k in self.ORDERS:
            assert enumerate_radical_rings(p, k)
        monkeypatch.undo()
        assert max(seen.values()) == 1
        # the classes of each order, and of the orders p^j below it whose
        # elementary classes its mixed types lift from
        classes = {(N.p, N.exponents, N.mult) for p, k in self.ORDERS
                   for j in range(1, k + 1) for N in enumerate_radical_rings(p, j)}
        assert set(seen) == classes | failed
        assert classes.isdisjoint(failed)


class TestEnumerationGarbage:
    def test_no_reference_cycles_left(self):
        # nothing the enumerator allocates may wait for the cycle collector
        gc.collect()
        gc.disable()
        try:
            for p, k in ((2, 3), (3, 2)):
                rad._enumerate_cached.__wrapped__(p, k)
                assert gc.collect() == 0, (p, k)
        finally:
            gc.enable()


class TestModuleCaches:
    def test_bounded(self):
        caches = (rad._enumerate_cached, rad._enumerate_type_elementary,
                  rad._elementary_tables, _transport_kernel, _associator_kernel,
                  cyclotomic_poly, _torsion_unit_data)
        for cached in caches:
            assert cached.cache_info().maxsize is not None, cached.__name__
        for n in range(1, cyclotomic_poly.cache_info().maxsize + 20):
            cyclotomic_poly(n)
        for cached in caches:
            info = cached.cache_info()
            assert info.currsize <= info.maxsize, cached.__name__


class TestSmallTheorem:
    def test_odd_primes_no_violations(self):
        for (p, k) in [(3, 2), (5, 2), (3, 3)]:
            report = check_small_theorem(p, k)
            assert report.violations == []

    def test_small_classes_match_examples(self):
        report = check_small_theorem(3, 2)
        small = [e for e in report.entries if e["small"]]
        assert small and all(e["isomorphic"] for e in small)
        report = check_small_theorem(5, 3)
        assert all(e["small"] for e in report.entries)  # rank <= 3 < 4
        assert report.violations == []

    def test_p2_exhibits_mismatch(self):
        report = check_small_theorem(2, 2)
        assert report.violations == []
        mismatched = {(str(e["additive"]), str(e["adjoint"]))
                      for e in report.mismatches}
        assert ("Z/4Z", "Z/2Z x Z/2Z") in mismatched  # 2Z/8Z

    def test_p2_never_small(self):
        report = check_small_theorem(2, 3)
        nontrivial_small = [e for e in report.entries
                            if e["small"] and e["ring"].order() > 1]
        assert nontrivial_small == []


class TestByott:
    def test_spec_examples(self):
        two_z16 = RadicalRing(2, (3,), ((2,),))  # 2Z/16Z: x^2 = 2x, |N| = 8
        assert check_byott(two_z16)
        zero_z8 = RadicalRing(2, (3,), ((0,),))
        assert check_byott(zero_z8)
        zero_2cubed = RadicalRing(2, (1, 1, 1), tuple((0, 0, 0) for _ in range(6)))
        assert check_byott(zero_2cubed)

    def test_wrong_order(self):
        with pytest.raises(HypothesisViolated):
            check_byott(TWO_Z8)  # order 4 < 8
        with pytest.raises(HypothesisViolated):
            check_byott(THREE_Z27)

    def test_holds_across_enumeration(self):
        for k in (3, 4):
            for N in enumerate_radical_rings(2, k):
                assert check_byott(N)


def census_structure(elems, op, identity, p):
    """Order-census reconstruction: an independent oracle for the abelian
    structure of a p-group given as a black box."""
    n = len(elems)
    counts = {}
    for x in elems:
        order = 1
        y = x
        while y != identity:
            acc = identity
            for _ in range(p):
                acc = op(acc, y)
            y = acc
            order *= p
        counts[order] = counts.get(order, 0) + 1
    s = [1]
    k = 1
    while s[-1] < n:
        pk = p ** k
        s.append(sum(c for o, c in counts.items() if pk % o == 0))
        k += 1
    deltas = []
    for i in range(1, len(s)):
        ratio = s[i] // s[i - 1]
        e = 0
        while p ** e < ratio:
            e += 1
        assert p ** e == ratio
        deltas.append(e)
    exps = []
    for k, _ in enumerate(deltas):
        nxt = deltas[k + 1] if k + 1 < len(deltas) else 0
        exps.extend([k + 1] * (deltas[k] - nxt))
    return FinAbGroup.from_orders([p ** e for e in exps])


class TestStructureRecoveryCrossCheck:
    def test_adjoint_groups_match_order_census(self):
        # the kernel-counting recovery agrees with the census reconstruction
        # on every enumerated adjoint group of order up to 27
        for (p, k) in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                       (5, 1), (5, 2)]:
            for N in enumerate_radical_rings(p, k):
                census = census_structure(list(N.elements()), N.circle,
                                          N.zero(), p)
                assert census == N.adjoint_group(), N.mult


class TestExtraction:
    def test_from_black_box(self):
        # rebuild 2Z/8Z from raw elements {0,2,4,6} of Z/8
        elems = [0, 2, 4, 6]
        N = radical_ring_from_mult(
            elems, lambda a, b: (a + b) % 8, 0, lambda a, b: a * b % 8, 2)
        assert N.additive_group() == G(4)
        assert N.adjoint_group() == G(2, 2)

    def test_trivial(self):
        N = radical_ring_from_mult([0], lambda a, b: 0, 0, lambda a, b: 0, 2)
        assert N.order() == 1
        assert N.additive_group().is_trivial()
