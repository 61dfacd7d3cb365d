"""Radical ring arithmetic, enumeration completeness, and the theorem
oracles over the enumerated classes."""

from __future__ import annotations

import random
from itertools import product as iproduct

import pytest

import fuchs.radical as rad
from fuchs.abelian import FinAbGroup
from fuchs.radical import (CapExceeded, InvalidRing, RadicalRing, WrongOrder,
                           check_byott, check_small_theorem,
                           enumerate_radical_rings, power_ideal_chain,
                           radical_ring_from_mult)


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

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_radical_rings(5, 5)
        with pytest.raises(CapExceeded):
            enumerate_radical_rings(2, 4, cap=8)

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "8")
        with pytest.raises(CapExceeded):
            enumerate_radical_rings(3, 2)
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "100")
        assert len(enumerate_radical_rings(3, 2)) == 4


def _brute_classes(p, exponents) -> int:
    _, slots = rad._mixed_type_candidates(p, exponents)
    valid = []
    for combo in iproduct(*(iproduct(*pc) for pc in slots)):
        if rad._valid_table(p, exponents, combo) is not None:
            valid.append(combo)
    autos = rad._all_automorphisms(p, exponents)
    visited = set()
    classes = 0
    for table in sorted(valid):
        if table in visited:
            continue
        visited |= {rad._apply_automorphism(p, exponents, table, a) for a in autos}
        classes += 1
    return classes


def _brute_isomorphic(N: RadicalRing, M: RadicalRing) -> bool:
    if N.exponents != M.exponents:
        return False
    autos = rad._all_automorphisms(N.p, N.exponents)
    return any(rad._apply_automorphism(N.p, N.exponents, N.mult, a) == M.mult
               for a in autos)


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
        with pytest.raises(WrongOrder):
            check_byott(TWO_Z8)  # order 4 < 8
        with pytest.raises(WrongOrder):
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
        # the peeling-based recovery agrees with the census reconstruction
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
