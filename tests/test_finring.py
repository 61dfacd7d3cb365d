"""Unit groups, locality, the local unit-structure identity, and the exact
unit sequence, all over explicitly enumerated finite rings."""

from __future__ import annotations

from pathlib import Path

import pytest

import fuchs
from fuchs.abelian import FinAbGroup
from fuchs.finring import (EvenPrime, FinCommRing, LocalData, NotLocal,
                           build_corpus, decide_local_small,
                           field_ring, galois_ring, localize,
                           maximal_ideal_ring, nilpotent_extension,
                           product_ring, unit_elements, unitalization,
                           unit_group, verify_local_formula,
                           zn_ring, zn_with_nilpotent)
import fuchs.radical as rad
from fuchs.finring import _one_plus_m
from fuchs.radical import CapExceeded, enumerate_radical_rings


def G(*orders):
    return FinAbGroup.from_orders(orders)


def _paired_units(A):
    """Reference definition: x is a unit when x * y = 1 for some y.  Each
    element is paired with the others in element order until a partner
    decides it: x * y = 1 makes x and y units, and x * y = 0 with x, y != 0
    makes both zero divisors, which are never units.  In a finite ring
    every element is one or the other, so every scan ends with a verdict."""
    elems = list(A.elements())
    zero = A.zero()
    is_unit = {zero: False}
    for x in elems:
        if x in is_unit:
            continue
        for y in elems:
            xy = A.mul(x, y)
            if xy == A.one:
                is_unit[x] = is_unit[y] = True
                break
            if xy == zero and y != zero:
                is_unit[x] = is_unit[y] = False
                break
        else:
            raise AssertionError(f"{x} is neither a unit nor a zero divisor")
    return [x for x in elems if is_unit[x]]


# unitalizations are checked up to this order: the pairing reference is
# quadratic, and 2^7 keeps all 250 of them under a few seconds
PAIRING_CAP = 2 ** 7


class TestUnitGroup:
    def test_examples(self):
        assert unit_group(zn_ring(9)) == G(6)
        assert unit_group(field_ring(4)) == G(3)
        assert unit_group(zn_with_nilpotent(4, 2)) == G(2, 2)

    def test_unit_count_matches_invertibles(self):
        for A in build_corpus():
            assert unit_elements(A) == _paired_units(A), A.name

    def test_agrees_with_pairing_on_unitalizations(self):
        # Z/p^c + N for every radical class N of order p^k <= 27 and every
        # c with exponent(N) | p^c and p^c |N| <= PAIRING_CAP
        checked = 0
        for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                     (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1),
                     (19, 1), (23, 1)]:
            for N in enumerate_radical_rings(p, k):
                c = max(N.exponents)
                while p ** c * N.order() <= PAIRING_CAP:
                    A = unitalization(N, c)
                    assert unit_elements(A) == _paired_units(A), (A.name, N)
                    checked += 1
                    c += 1
        assert checked == 250

    def test_agrees_with_pairing_across_primes_and_sizes(self):
        # several primes in one basis order, and orders above 2^8
        for A in [zn_ring(30), nilpotent_extension(zn_ring(6)),
                  nilpotent_extension(zn_ring(12)), field_ring(257),
                  galois_ring(2, 3, 8), product_ring(zn_ring(16), zn_ring(25))]:
            assert unit_elements(A) == _paired_units(A), A.name

    def test_linear_solve_path_agrees(self):
        # a ring of order 400 whose unit group is known in closed form; its
        # basis orders 25 and 16 give one linear test mod 5 and one mod 2
        A = product_ring(zn_ring(25), zn_ring(16))
        units = unit_elements(A)
        assert len(units) == 20 * 8
        assert unit_group(A) == G(20) * G(2, 4)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            unit_group(zn_ring(11), cap=10)

    def test_oracle_cap_variable_sets_unit_group_cap(self, monkeypatch):
        # one variable replaces both caps: 100 is meant for radical
        # enumeration but also refuses the unit group of a ring of order 128
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "100")
        with pytest.raises(CapExceeded):
            unit_group(zn_ring(128))
        monkeypatch.delenv("FUCHS_ORACLE_CAP")
        assert unit_group(zn_ring(128)) == G(2, 32)


class TestLocalize:
    def test_examples(self):
        data = localize(zn_ring(9))
        assert isinstance(data, LocalData)
        assert (data.p, data.lam) == (3, 1)
        assert len(data.maximal_ideal) == 3

        split = localize(zn_ring(6))
        assert isinstance(split, NotLocal)
        assert split.idempotent == (3,)

        data = localize(field_ring(4))
        assert (data.p, data.lam) == (2, 2)
        assert data.maximal_ideal == ((0, 0),)

    def test_idempotent_splits_the_ring(self):
        for A in build_corpus():
            data = localize(A)
            if isinstance(data, LocalData):
                continue
            e = data.idempotent
            one_minus_e = A.add(A.one, A.neg(e))
            assert A.mul(e, e) == e
            eA = sorted({A.mul(e, x) for x in A.elements()})
            fA = sorted({A.mul(one_minus_e, x) for x in A.elements()})
            assert len(eA) * len(fA) == A.order()
            # a -> (ea, (1-e)a) is an injective ring homomorphism
            seen = set()
            for x in A.elements():
                pair = (A.mul(e, x), A.mul(one_minus_e, x))
                assert pair not in seen
                seen.add(pair)
            for x, y in [(A.one, A.one), ((0,) * A.rank(), A.one)]:
                px = (A.mul(e, x), A.mul(one_minus_e, x))
                py = (A.mul(e, y), A.mul(one_minus_e, y))
                prod_pair = (A.mul(e, A.mul(x, y)), A.mul(one_minus_e, A.mul(x, y)))
                assert prod_pair == (A.mul(px[0], py[0]), A.mul(px[1], py[1]))


def closure_maximal_ideal(A):
    """Reference definition: A is local iff its non-units are closed under
    addition, and then they are its maximal ideal.  None when not local."""
    units = set(unit_elements(A))
    nonunits = tuple(x for x in A.elements() if x not in units)
    closed = all(A.add(x, y) not in units for x in nonunits for y in nonunits)
    return nonunits if closed else None


class TestLocalizeAgainstClosure:
    def test_agrees_with_closure_definition(self):
        rings = build_corpus() + [zn_ring(1024),
                                  product_ring(zn_ring(32), zn_ring(32))]
        for A in rings:
            data = localize(A)
            ideal = closure_maximal_ideal(A)
            if ideal is None:
                assert isinstance(data, NotLocal), A.name
            else:
                assert data.maximal_ideal == ideal, A.name
                assert data.residue_size == A.order() // len(ideal)


class TestInvalidRing:
    def test_one_class_for_both_ring_kinds(self):
        with pytest.raises(fuchs.InvalidRing):  # t-order 3 does not divide 4
            zn_with_nilpotent(4, 3)
        with pytest.raises(fuchs.InvalidRing):  # x^2 = 0, so 1 is no identity
            FinCommRing((2,), ((0,),), (1,))
        with pytest.raises(fuchs.InvalidRing):
            FinCommRing.from_presentation(
                "kind = radical\nprime = 2\nbasis_orders = 2\nmult[1][1] = 0\n")


class TestLocalFormula:
    def test_examples(self):
        assert verify_local_formula(zn_ring(9))
        assert verify_local_formula(zn_ring(8))
        F4t = nilpotent_extension(field_ring(4))
        assert verify_local_formula(F4t)
        assert unit_group(F4t) == G(3, 2, 2)

    def test_holds_on_whole_corpus(self):
        for A in build_corpus():
            if isinstance(localize(A), LocalData):
                assert verify_local_formula(A), A.name

    def test_one_plus_m_is_the_adjoint_group_of_m(self):
        # 1 + m recovered inside A* against m rebuilt as a radical ring
        rings = build_corpus() + [zn_ring(1024), galois_ring(2, 5, 4),
                                  field_ring(907)]
        local = 0
        for A in rings:
            data = localize(A)
            if isinstance(data, LocalData):
                local += 1
                assert _one_plus_m(A, data) \
                    == maximal_ideal_ring(A, data).adjoint_group(), A.name
        assert local >= 40

    def test_maximal_ideal_is_radical_ring(self):
        A = zn_ring(9)
        data = localize(A)
        m = maximal_ideal_ring(A, data)
        assert m.additive_group() == G(3)
        assert m.adjoint_group() == G(3)
        A = galois_ring(2, 2, 4)
        m = maximal_ideal_ring(A, localize(A))
        assert m.additive_group() == G(2, 2)


class QuotientRing:
    """A/I for an ideal I, with coset labels as elements."""

    def __init__(self, A: FinCommRing, ideal_elements):
        self.A = A
        ideal = set(ideal_elements)
        label_of = {}
        labels = []
        for x in A.elements():
            if x in label_of:
                continue
            coset = sorted(A.add(x, i) for i in ideal)
            lab = coset[0]
            for y in coset:
                label_of[y] = lab
            labels.append(lab)
        self.label_of = label_of
        self.labels = sorted(labels)
        self.one = label_of[A.one]

    def mul(self, a, b):
        return self.label_of[self.A.mul(a, b)]

    def units(self):
        return [x for x in self.labels
                if any(self.mul(x, y) == self.one for y in self.labels)]


def ideals_inside(A: FinCommRing, ambient) -> list[frozenset]:
    """All ideals of A contained in the given element set (desk scale)."""
    ambient = sorted(ambient)
    found = {frozenset({A.zero()})}
    frontier = [frozenset({A.zero()})]
    basis = A.basis()
    while frontier:
        sub = frontier.pop()
        for g in ambient:
            if g in sub:
                continue
            closure = set(A.span(list(sub) + [g]))
            if not all(x in ambient or x == A.zero() for x in closure):
                continue
            # close under multiplication by the whole ring
            while True:
                extra = {A.mul(b, x) for b in basis for x in closure} - closure
                if not extra:
                    break
                closure = set(A.span(list(closure) + list(extra)))
            fs = frozenset(closure)
            if fs not in found and all(x in ambient or x == A.zero() for x in fs):
                found.add(fs)
                frontier.append(fs)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


class TestExactSequence:
    def test_unit_counts_multiply_over_ideals(self):
        # |A*| = |1+I| * |(A/I)*| for every ideal I inside m
        for A in [zn_ring(16), zn_ring(27), zn_with_nilpotent(8, 2),
                  nilpotent_extension(field_ring(4))]:
            data = localize(A)
            assert isinstance(data, LocalData)
            units = len(unit_elements(A))
            for ideal in ideals_inside(A, data.maximal_ideal):
                quotient = QuotientRing(A, ideal)
                one_plus = len(ideal)
                assert units == one_plus * len(quotient.units()), (A.name, len(ideal))

    def test_kernel_is_one_plus_ideal(self):
        A = zn_ring(16)
        data = localize(A)
        for ideal in ideals_inside(A, data.maximal_ideal):
            quotient = QuotientRing(A, ideal)
            kernel = [u for u in unit_elements(A)
                      if quotient.label_of[u] == quotient.one]
            expected = sorted(A.add(A.one, x) for x in ideal)
            assert sorted(kernel) == expected
            # surjectivity on units
            image = {quotient.label_of[u] for u in unit_elements(A)}
            assert image == set(quotient.units())


class TestDecideLocalSmall:
    def test_spec_examples(self):
        v = decide_local_small(G(24, 5, 5), 5, 2)
        assert v.is_realisable
        assert v.certificate["witness_p_group"] == "Z/5Z"

        v = decide_local_small(G(24, 25), 5, 2)
        assert v.is_not_realisable

        v = decide_local_small(G(2, 3, 3, 3), 3, 1)
        assert v.is_unknown

    def test_wrong_cyclic_part(self):
        v = decide_local_small(G(7, 5, 5), 5, 2)
        assert v.is_not_realisable

    def test_even_prime_rejected(self):
        with pytest.raises(EvenPrime):
            decide_local_small(G(4), 2, 1)

    def test_positive_cases_have_witnesses(self):
        # lam = 1: Z/p^{a+1} realises Z/(p-1) x Z/p^a
        for p, a in [(3, 2), (5, 1), (7, 1)]:
            target = G(p - 1) * G(p ** a)
            v = decide_local_small(target, p, 1)
            assert v.is_realisable
            assert unit_group(zn_ring(p ** (a + 1))) == target


class TestSpecWitnesses:
    def test_f25_dual_numbers_realise_the_worked_group(self):
        # the (5,2)-type witness for Z/24 x (Z/5)^2: F_25[t]/(t^2) has
        # 625 elements, residue field F_25, and 1 + m = (F_25, +) = (Z/5)^2
        A = nilpotent_extension(field_ring(25))
        assert A.order() == 625
        data = localize(A)
        assert (data.p, data.lam) == (5, 2)
        assert unit_group(A) == G(24, 5, 5)
        assert verify_local_formula(A)
        from fuchs.realize import decide_finite
        assert decide_finite(G(24, 5, 5)).is_realisable

    def test_local_small_realisable_implies_finite_realisable(self):
        from fuchs.realize import decide_finite
        cases = [(G(24, 5, 5), 5, 2), (G(2, 3), 3, 1), (G(4, 5, 25), 5, 1),
                 (G(6, 7, 7, 7), 7, 1)]
        for grp, p, lam in cases:
            if decide_local_small(grp, p, lam).is_realisable:
                assert not decide_finite(grp).is_not_realisable, str(grp)


class TestCorpusValidation:
    def test_enumerated_classes_are_not_validated_again(self, monkeypatch):
        # the corpus unitalizes the enumerated radical classes as they are
        enumerate_radical_rings(2, 3)
        enumerate_radical_rings(3, 1)
        build_corpus()  # warms every enumeration cache the corpus reads
        calls = []
        inner = rad.validate_radical
        monkeypatch.setattr(rad, "validate_radical",
                            lambda N: calls.append(N) or inner(N))
        build_corpus()
        assert calls == []


class TestCorpusFiles:
    def test_golden_files_match_generator(self):
        data_dir = Path(__file__).resolve().parent.parent / "src" / "fuchs" / "data" / "corpus"
        files = sorted(data_dir.glob("*.ring"))
        corpus = build_corpus()
        assert len(files) == len(corpus)
        for path, A in zip(files, corpus):
            assert path.read_text(encoding="utf-8") == A.to_presentation()

    def test_golden_files_parse(self):
        data_dir = Path(__file__).resolve().parent.parent / "src" / "fuchs" / "data" / "corpus"
        for path in sorted(data_dir.glob("*.ring")):
            A = FinCommRing.from_presentation(path.read_text(encoding="utf-8"))
            assert A.order() >= 2
