"""Unit groups, locality, the local unit-structure identity, and the exact
unit sequence, all over explicitly enumerated finite rings."""

from __future__ import annotations

from pathlib import Path

import pytest

import fuchs
from fuchs.abelian import FinAbGroup
from fuchs.finring import (EvenPrime, FinCommRing, LocalData, NotLocal,
                           QuotientRing, build_corpus, decide_local_small,
                           field_ring, galois_ring, ideals_inside, localize,
                           maximal_ideal_ring, nilpotent_extension,
                           product_ring, unit_elements,
                           unit_group, verify_local_formula,
                           zn_ring, zn_with_nilpotent)
from fuchs.radical import CapExceeded


def G(*orders):
    return FinAbGroup.from_orders(orders)


class TestUnitGroup:
    def test_examples(self):
        assert unit_group(zn_ring(9)) == G(6)
        assert unit_group(field_ring(4)) == G(3)
        assert unit_group(zn_with_nilpotent(4, 2)) == G(2, 2)

    def test_unit_count_matches_invertibles(self):
        for A in build_corpus():
            units = unit_elements(A)
            brute = [x for x in A.elements()
                     if any(A.mul(x, y) == A.one for y in A.elements())]
            assert sorted(units) == sorted(brute), A.name

    def test_linear_solve_path_agrees(self):
        # force the above-2^8 code path on a ring small enough to brute force
        A = product_ring(zn_ring(25), zn_ring(16))  # order 400 > 256
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

    def test_maximal_ideal_is_radical_ring(self):
        A = zn_ring(9)
        data = localize(A)
        m = maximal_ideal_ring(A, data)
        assert m.additive_group() == G(3)
        assert m.adjoint_group() == G(3)
        A = galois_ring(2, 2, 4)
        m = maximal_ideal_ring(A, localize(A))
        assert m.additive_group() == G(2, 2)


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
