"""The decision engine: rank formulas, classifications, verdicts, and
certificate soundness."""

from __future__ import annotations

import random
from collections import Counter
from itertools import compress
from math import isqrt

import pytest

import fuchs.realize as realize
from fuchs.abelian import FgAbGroup, FinAbGroup, format_group, parse_group
from fuchs.finring import unit_group, unitalization, zn_ring
from fuchs.numtheory import HypothesisViolated, factorize
from fuchs.radical import RadicalRing, _partitions
from fuchs.realize import (CASE_PLAIN, CASE_SPORADIC, GeClass, NotInClass,
                           _one_units, certificate_check,
                           certificate_check_status, decide_any,
                           decide_finite, decide_tn, g_value, ge_classify,
                           r_value, verdict_to_json)
from fuchs.verdict import Verdict


def G(*orders):
    return FinAbGroup.from_orders(orders)


def FG(orders, r=0):
    return FgAbGroup(G(*orders), r)


class TestGValue:
    def test_paper_numbers(self):
        assert g_value(G(8, 41)) == 79
        assert g_value(G(8)) == 1
        assert g_value(G(2)) == 0

    def test_convention_and_multiplicities(self):
        # epsilon = 1 keeps the correction at 0; repeated primes count per factor
        assert g_value(G(2, 3)) == 0  # phi(6)/2 - 1 = 0, s0 = 1
        assert g_value(G(2, 3, 3)) == 0
        assert g_value(G(4, 3)) == 1  # phi(12)/2 - 1 = 1, s0 = 1
        # two odd primes: s0 = 2, so c = phi(4)/2 - 1 = 0 applies
        assert g_value(G(4, 3, 5)) == 1 + 3 + 0
        assert g_value(G(8, 3, 5)) == 3 + 7 + 1  # c = phi(8)/2 - 1 = 1

    def test_rejects(self):
        with pytest.raises(HypothesisViolated):
            g_value(G(9))  # odd order
        with pytest.raises(HypothesisViolated):
            g_value(G(2, 2, 3))  # non-cyclic 2-part

    def test_monotone_on_embeddable_subgroups(self):
        # g(T') <= g(T) whenever T' embeds in T (both with cyclic 2-part)
        groups = []
        for n in range(2, 201):
            T = G(n)
            groups.append(T)
        rng = random.Random(11)
        for _ in range(150):
            orders = [rng.choice([2, 4, 8])] + \
                [rng.choice([3, 5, 7, 9]) for _ in range(rng.randint(0, 3))]
            T = G(*orders)
            if sum(1 for p, _, m in T.factors if p == 2) == 1:
                groups.append(T)
        for T in groups:
            if T.order() % 2 or T.order() > 200:
                continue
            for H in _even_subgroup_types(T):
                assert g_value(H) <= g_value(T), (str(H), str(T))


def _even_subgroup_types(T):
    """Iso types of even-order subgroups with cyclic 2-part embedding in T."""
    from itertools import product as iproduct
    per_prime = []
    primes = T.primes()
    for p in primes:
        exps = sorted((e for _, e, m in T.sylow(p).factors for _ in range(m)),
                      reverse=True)
        choices = []
        for mask in iproduct(*(range(e + 1) for e in exps)):
            sub = tuple(sorted((m for m in mask if m), reverse=True))
            if all(a <= b for a, b in zip(sub, exps)):
                choices.append(sub)
        per_prime.append(sorted(set(choices)))
    for combo in iproduct(*per_prime):
        orders = []
        for p, exps in zip(primes, combo):
            orders.extend(p ** e for e in exps)
        H = G(*orders)
        twos = [f for f in H.factors if f[0] == 2]
        if len(twos) == 1 and twos[0][2] == 1:
            yield H


def _groups_over(primes, bound):
    """Cyclic orders of every abelian group of order <= bound built from
    the given primes."""
    groups = [((), 1)]
    for p in primes:
        grown = []
        for orders, n in groups:
            k = 0
            while n * p ** k <= bound:
                grown.extend((orders + tuple(p ** e for e in part), n * p ** k)
                             for part in _partitions(k))
                k += 1
        groups = grown
    return [orders for orders, _ in groups]


class TestGeClassify:
    def test_spec_examples(self):
        ge = ge_classify(G(8, 41))
        assert isinstance(ge, GeClass)
        assert ge.eps == 3 and ge.bad_primes == ()
        assert [(q, lam) for q, _, lam in ge.good_primes] == [(41, 1)]

        ge = ge_classify(G(4, 3))
        assert ge.eps == 2
        assert [p for p, _ in ge.bad_primes] == [3]

        bad = ge_classify(G(4, 3, 3, 3))
        assert isinstance(bad, NotInClass) and bad.prime == 3

    def test_cyclic_always_in_class(self):
        for n in range(2, 400, 2):
            assert isinstance(ge_classify(G(n)), GeClass)


class TestRValue:
    def test_spec_examples(self):
        assert r_value(ge_classify(G(8, 41))) == (1, CASE_PLAIN)
        assert r_value(ge_classify(G(2, 5))) == (0, CASE_PLAIN)

    def test_sporadic_case(self):
        # eps = 3, bad prime 3 (lam(3,8) = 2), good prime 41 (41 = 1 mod 8);
        # 41 mod 3 = 2 so Z/41 is not a lam(41, 24)-power: case C2
        ge = ge_classify(G(8, 3, 41))
        assert isinstance(ge, GeClass)
        assert [p for p, _ in ge.bad_primes] == [3]
        need, case = r_value(ge)
        assert case == CASE_SPORADIC
        assert need == g_value(G(8, 3)) + g_value(G(8))
        # while 41 = 1 mod 8*3 would stay plain: 241 is 1 mod 24 and prime
        ge = ge_classify(G(8, 3, 241))
        need, case = r_value(ge)
        assert case == CASE_PLAIN
        assert need == g_value(G(8, 3))

    def test_zn_closed_form(self):
        # cyclic case: r depends only on the part of n made of primes
        # that are not 1 mod 2^eps
        for n in range(2, 1001, 2):
            ge = ge_classify(G(n))
            need, case = r_value(ge)
            eps = ge.eps
            a = 1
            for p, e in factorize(n).pairs:
                if p != 2 and p % 2 ** eps != 1:
                    a *= p ** e
            expected = g_value(G(2 ** eps * a))
            if case == CASE_SPORADIC:
                expected += g_value(G(2 ** eps))
            assert need == expected, n


class TestDecideTn:
    def test_spec_examples(self):
        assert decide_tn(parse_group("Z/328Z x Z")).is_realisable
        v = decide_tn(parse_group("Z/4Z x Z/16Z"))
        assert v.is_not_realisable and v.obstruction["u"] == 4
        assert decide_tn(parse_group("Z/8Z")).is_not_realisable

    def test_family(self):
        assert decide_tn(parse_group("Z/4Z x Z/2Z")).is_realisable
        assert decide_tn(parse_group("Z/4Z x Z/4Z")).is_realisable
        assert decide_tn(parse_group("Z/4Z x Z/8Z")).is_realisable
        assert decide_tn(parse_group("Z/4Z x Z/32Z")).is_not_realisable
        v = decide_tn(parse_group("Z/4Z x Z/8Z x Z"))
        assert v.is_unknown  # rank > 0 is outside the family theorem

    def test_odd_order(self):
        assert decide_tn(FG([9])).is_not_realisable
        assert decide_tn(FG([], 2)).is_not_realisable

    def test_epsilon_bound(self):
        v = decide_tn(FG([8, 8]))
        assert v.is_not_realisable
        assert v.theorem == "finite-units-epsilon-bound"

    def test_square_of_small(self):
        # Z/4 x (Z/3)^2: in class (square), realisable at rank 0
        assert decide_tn(FG([4, 3, 3])).is_realisable
        # Z/4 x (Z/3)^3: not a square, rank 3 >= 2: the square test applies
        v = decide_tn(FG([4, 3, 3, 3]))
        assert v.is_not_realisable
        assert v.theorem == "square-of-small-sylows-tn"
        # (Z/3)^4 is the square of (Z/3)^2, hence a good prime for the
        # threshold theorem: realisable at rank 0 with no smallness needed
        v = decide_tn(FG([4, 3, 3, 3, 3]))
        assert v.is_realisable and v.theorem == "tn-rank-threshold"

    def test_square_rule_never_finds_realisable(self):
        # with Sylow-2 = Z/4 every p = 1 mod 4 is good (lam = 1), so the
        # rule runs only when ge_classify met a p = 3 mod 4 whose Sylow part
        # is neither a square nor of rank < 2: that p is 2-small, and then
        # a blocker, or it is not, and the verdict is unknown
        kinds = Counter()
        for odd in _groups_over((3, 5, 7, 11, 19, 23), 200_000):
            v = decide_tn(FG([4, *odd]))
            if v.theorem != "square-of-small-sylows-tn":
                continue
            kinds[v.kind] += 1
            bad = ge_classify(G(4, *odd))
            assert isinstance(bad, NotInClass) and bad.prime % 4 == 3
            if v.is_not_realisable:
                assert bad.prime in v.obstruction["primes"]
                assert certificate_check_status(v) == "pass"
        assert set(kinds) == {"not_realisable", "unknown"}, kinds

    def test_monotone_in_rank(self):
        rng = random.Random(23)
        samples = [G(n) for n in range(2, 90, 2)]
        for _ in range(25):
            orders = [rng.choice([2, 4, 8])] + \
                [rng.choice([3, 5, 7, 13]) for _ in range(rng.randint(0, 2))]
            samples.append(G(*orders))
        for T in samples:
            prev = False
            for r in range(0, 4):
                v = decide_tn(FgAbGroup(T, r))
                if v.is_unknown:
                    continue
                if prev:
                    assert v.is_realisable, (str(T), r)
                prev = prev or v.is_realisable


class TestDecideFinite:
    def test_spec_examples(self):
        assert decide_finite(G(328)).is_not_realisable
        v = decide_finite(G(5, 5, 600))
        assert v.is_not_realisable
        text = str(v.obstruction["trace"])
        assert "(5,2)" in text and "Z/25Z" in text
        assert decide_finite(G(24, 5, 5)).is_realisable

    def test_cyclic_matches_covers(self):
        from fuchs.numtheory import pearson_schneider_covers
        for n in range(1, 200):
            v = decide_finite(G(n))
            assert v.is_realisable == bool(pearson_schneider_covers(n)), n

    def test_easy_products(self):
        assert decide_finite(G(2, 2)).is_realisable        # F_3 x F_3
        assert decide_finite(G(4, 4)).is_realisable        # F_5 x F_5
        assert decide_finite(G(2, 4)).is_realisable        # F_3 x F_5
        assert decide_finite(G(8, 8)).is_realisable        # F_9 x F_9
        assert decide_finite(G(16, 2)).is_realisable       # F_17 x F_3

    def test_search_consistent_with_cyclic_theorem(self):
        # force the multiset search on cyclic inputs and compare verdicts
        from fuchs.realize import _local_factor_search
        from fuchs.numtheory import pearson_schneider_covers
        for n in range(2, 120):
            grp = G(n)
            if grp.is_cyclic():
                sol, unknowns, _ = _local_factor_search(grp)
                has_cover = bool(pearson_schneider_covers(n))
                if sol is not None:
                    assert has_cover, n
                elif not unknowns:
                    assert not has_cover, n


    def test_residue_shapes_match_the_prime_sieve(self):
        # the shapes were once drawn from every prime up to exp + 1; the
        # divisor walk must give the same sorted (p, lam) list
        from fuchs.realize import _residue_shapes
        small = list(_primes_up_to(3001))
        for exp in range(1, 3001):
            assert _residue_shapes(exp) == _sieve_shapes(exp, small), exp
        near_bound = list(_primes_up_to(500_001))
        for exp in [*range(450_000, 500_001, 1_001), 498_960, 500_000]:
            assert _residue_shapes(exp) == _sieve_shapes(exp, near_bound), exp
        exp = 2 * 10_000_019
        assert _residue_shapes(exp) == _sieve_shapes(exp, _primes_up_to(exp + 1))


class TestOneUnits:
    """The small-Sylow rule for the one-units H of a (p, lam)-type local
    factor, the one rule the search and its re-check share."""

    def test_spec_examples(self):
        assert _one_units(G(5, 5), 5, 2) is True      # (Z/5)^2 = (Z/5)^2
        assert _one_units(G(25), 5, 2) is False       # 2-small, no square
        assert _one_units(G(3, 3, 3, 3, 3), 3, 2) is None  # rank 5 >= 4
        # (Z/3)^3 is a first power: Z/3 + N with N = (Z/3)^3 and zero
        # product has exactly the units Z/2 x (Z/3)^3
        assert _one_units(G(3, 3, 3), 3, 1) is True
        N = RadicalRing(3, (1, 1, 1), ((0, 0, 0),) * 6)
        assert unit_group(unitalization(N, 1)) == G(2, 3, 3, 3)

    def test_even_prime_is_undecided(self):
        for H in [G(2), G(4), G(2, 2), G(8, 2)]:
            for lam in (1, 2, 3):
                assert _one_units(H, 2, lam) is None
        assert _one_units(G(), 2, 1) is True

    def test_positive_cases_have_witnesses(self):
        # lam = 1: Z/p^{a+1} realises Z/(p-1) x Z/p^a
        for p, a in [(3, 2), (5, 1), (7, 1)]:
            assert _one_units(G(p ** a), p, 1) is True
            assert unit_group(zn_ring(p ** (a + 1))) == G(p - 1) * G(p ** a)


def _primes_up_to(n: int):
    """Sieve of Eratosthenes, the reference for the residue shapes."""
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return compress(range(2, n + 1), sieve[2:])


def _sieve_shapes(exp, primes):
    out = []
    for p in primes:
        if p > exp + 1:
            break
        lam = 1
        while p ** lam - 1 <= exp:
            if exp % (p ** lam - 1) == 0:
                out.append((p, lam))
            lam += 1
    return out


class TestDecideAny:
    def test_spec_examples(self):
        assert decide_any(parse_group("Z/328Z x Z")).is_realisable
        assert decide_any(parse_group("Z/328Z")).is_not_realisable
        v = decide_any(parse_group("Z/4Z x Z/16Z"))
        assert v.is_realisable and v.certificate["fermat_prime"] == 17
        v = decide_any(parse_group("Z/4Z x Z/32Z"))
        assert v.is_not_realisable and v.obstruction["factor"] == 3
        assert decide_any(parse_group("Z/5Z x Z/5Z x Z/600Z")).is_not_realisable

    def test_fermat_family(self):
        wanted = {0, 1, 2, 3, 4, 8, 16}
        for u in range(21):
            orders = [4] if u == 0 else [4, 2 ** u]
            v = decide_any(FG(orders))
            assert not v.is_unknown
            assert v.is_realisable == (u in wanted), u

    def test_split_combination(self):
        # Z/24 x Z/2: finite part F_5 (Z/4), TN part Z/2 x Z/3 at rank 0
        v = decide_any(FG([8, 3, 2]))
        assert not v.is_unknown

    def test_odd_cyclic(self):
        assert decide_any(FG([3], 5)).is_realisable       # F_4-based covers
        assert decide_any(FG([5], 1)).is_not_realisable   # odd, no cover

    def test_trivial(self):
        assert decide_any(FG([])).is_realisable           # F_2
        assert decide_any(FG([], 3)).is_realisable        # Laurent over F_2


class TestCertificates:
    def sweep(self):
        verdicts = []
        for u in range(0, 18):
            orders = [4] if u == 0 else [4, 2 ** u]
            verdicts.append(decide_any(FG(orders)))
        for n in range(2, 140):
            verdicts.append(decide_tn(FG([n])))
            verdicts.append(decide_tn(FG([n], 1)))
            verdicts.append(decide_finite(G(n)))
            verdicts.append(decide_any(FG([n], 2)))
        verdicts.append(decide_finite(G(5, 5, 600)))
        verdicts.append(decide_any(parse_group("Z/5Z x Z/5Z x Z/600Z")))
        verdicts.append(decide_tn(parse_group("Z/328Z x Z")))
        verdicts.append(decide_any(parse_group("Z/328Z x Z")))
        verdicts.append(decide_tn(FG([4, 3, 3])))
        verdicts.append(decide_tn(FG([4, 3, 3, 3])))
        verdicts.append(decide_finite(G(24, 5, 5)))
        verdicts.append(decide_any(FG([8, 3, 2])))
        return [v for v in verdicts if not v.is_unknown]

    def test_every_verdict_passes(self):
        statuses = {}
        for v in self.sweep():
            s = certificate_check_status(v)
            statuses[s] = statuses.get(s, 0) + 1
            assert s != "fail", (v.query, v.ring_class, v.theorem, v.kind)
        assert statuses.get("uncheckable", 0) <= 0.05 * sum(statuses.values())

    def test_unknown_has_no_certificate(self):
        v = decide_tn(parse_group("Z/4Z x Z/8Z x Z"))
        with pytest.raises(ValueError):
            certificate_check(v)

    def test_json_shape(self):
        v = decide_any(parse_group("Z/4Z x Z/16Z"))
        doc = verdict_to_json(v)
        assert doc["verdict"] == "realisable"
        assert doc["query"] == "Z/4Z x Z/16Z"
        assert set(doc) <= {"query", "class", "verdict", "theorem",
                            "certificate", "obstruction", "gap", "checked"}

    def test_tampered_certificate_fails(self):
        from fuchs.verdict import Verdict
        v = decide_any(parse_group("Z/4Z x Z/16Z"))
        forged = Verdict(v.kind, v.theorem, "Z/4Z x Z/32Z", v.ring_class,
                         certificate=dict(v.certificate, u=5))
        assert certificate_check_status(forged) == "fail"

    @pytest.mark.parametrize("query, factor", [
        # Z/5 x Z/5 is not the unit group of F_2
        ((5, 5), (2, 1, (5, 5), ())),
        # one-units at the wrong prime
        ((5, 5), (3, 2, (), (5, 5))),
        # (Z/3)^5 is neither a square nor 2-small
        ((8, 3, 3, 3, 3, 3), (3, 2, (8,), (3, 3, 3, 3, 3))),
        # not a 3-group and not a square either
        ((8, 4, 32), (3, 2, (8,), (4, 32))),
        # F_25* is Z/24, not Z/7
        ((7, 5, 5), (5, 2, (7,), (5, 5))),
    ], ids=["units-not-a-residue-field", "H-at-the-wrong-prime",
            "H-neither-power-nor-small", "H-not-a-p-group", "wrong-cyclic-part"])
    def test_forged_factor_search_certificate_fails(self, query, factor):
        p, lam, units, H = factor
        forged = Verdict("realisable", "local-factor-search",
                         format_group(G(*query)), "finite",
                         certificate={"factors": [
                             {"p": p, "lam": lam, "units": format_group(G(*units)),
                              "H": format_group(G(*H))}]})
        assert certificate_check_status(forged) == "fail"

    @pytest.mark.parametrize("kind, theorem, query, cls, payload", [
        # T is not Z/4 x Z/2^u, or r > 0: the payload's u names another group
        ("realisable", "four-cross-two-power", "Z/5Z x Z/5Z x Z/600Z", "any",
         {"u": 1, "witness": "tn-model"}),
        ("realisable", "two-power-family-tn", "Z/3Z", "tn",
         {"u": 1, "witness": "shipped x^v = 1 + y model"}),
        ("realisable", "four-cross-two-power", "Z/4Z x Z/2Z x Z", "any",
         {"u": 1, "witness": "tn-model"}),
        ("not_realisable", "four-cross-two-power", "Z/3Z", "any",
         {"u": 5, "composite": 33, "factor": 3}),
        # the right group, but 35 is not 2^5 + 1
        ("not_realisable", "four-cross-two-power", "Z/4Z x Z/32Z", "any",
         {"u": 5, "composite": 35, "factor": 5}),
    ], ids=["four-cross-on-another-group", "two-power-on-a-cyclic-group",
            "four-cross-with-free-rank", "composite-on-another-group",
            "composite-not-2^u+1"])
    def test_forged_two_power_certificate_fails(self, kind, theorem, query,
                                                cls, payload):
        key = "certificate" if kind == "realisable" else "obstruction"
        forged = Verdict(kind, theorem, query, cls, **{key: payload})
        assert certificate_check_status(forged) == "fail"

    @pytest.mark.parametrize("query, p", [
        ("Z/2Z x Z/2Z x Z/25Z", 101),
        ("Z/2Z x Z/4Z x Z/17Z", 137),
        ("Z/2Z x Z/2Z x Z/2Z x Z/17Z", 137),
    ])
    def test_forged_cyclic_cover_on_a_non_cyclic_group_fails(self, query, p):
        # F_p* = Z/(p - 1) covers the order of T, but T is not cyclic
        cover = [{"value": p - 1, "kind": "prime_power_minus_one",
                  "p": p, "exp": 1}]
        forged = Verdict("realisable", "cyclic-finite-units", query, "finite",
                         certificate={"m": p - 1, "cover": cover,
                                      "cover_count": 1})
        assert decide_finite(parse_group(query).torsion).is_not_realisable
        assert certificate_check_status(forged) == "fail"

    def test_proofs_cover_exactly_the_realisations_the_deciders_emit(self):
        # a proof for a pair that no decider emits is dead code
        emitted = set()
        for orders in _groups_over(list(_primes_up_to(256)), 256):
            T = G(*orders)
            verdicts = [decide_finite(T)]
            for r in (0, 1):
                verdicts += [decide_tn(FgAbGroup(T, r)),
                             decide_any(FgAbGroup(T, r))]
            emitted.update((v.ring_class, v.theorem) for v in verdicts
                           if v.is_realisable)
        assert set(realize._PROOFS) == emitted

    @pytest.mark.parametrize("kind, theorem, query, cls, payload", [
        ("realisable", "tn-rank-threshold", "Z/8Z x Z", "tn", {}),
        ("realisable", "cyclic-finite-units", "Z/6Z", "finite",
         {"m": 6, "cover": "x", "cover_count": 1}),
        ("realisable", "local-factor-search", "Z/2Z x Z/6Z", "finite",
         {"factors": [{"p": 7, "lam": 1, "units": "Z/6Z x", "H": "1"}]}),
        # 3^(10^9) - 1 is never computed
        ("realisable", "cyclic-finite-units", "Z/3Z", "finite",
         {"m": 3, "cover": [{"value": 3, "kind": "prime_power_minus_one",
                             "p": 3, "exp": 10 ** 9}], "cover_count": 1}),
        ("realisable", "no-such-theorem", "Z/2Z", "finite", {"m": 2}),
        ("not_realisable", "no-such-theorem", "Z/5Z x Z/5Z", "any", {}),
        ("not_realisable", "local-factor-search", "Z/5Z x Z/5Z", "no-such-class",
         {}),
        ("not_realisable", "even-torsion-required", "not a group", "tn", {}),
        # a finite ring has a finite unit group
        ("realisable", "cyclic-finite-units", "Z/2Z x Z", "finite",
         {"m": 2, "cover": [{"value": 2, "kind": "prime_power_minus_one",
                             "p": 3, "exp": 1}], "cover_count": 1}),
    ], ids=["empty-certificate", "cover-not-a-list", "units-unparsable",
            "cover-exponent-huge", "unknown-theorem", "unknown-theorem-refutation", "unknown-class",
            "query-unparsable", "finite-class-with-free-rank"])
    def test_malformed_payload_fails(self, kind, theorem, query, cls, payload):
        key = "certificate" if kind == "realisable" else "obstruction"
        forged = Verdict(kind, theorem, query, cls, **{key: payload})
        assert certificate_check_status(forged) == "fail"

    def test_work_beyond_a_cap_is_uncheckable(self):
        # the construction witness for Z/4 x Z/181 has 4 * 181 > 700 elements
        v = decide_tn(parse_group("Z/724Z"))
        assert v.is_realisable and v.certificate["adjoined_torsion"] == "Z/181Z"
        assert certificate_check_status(v) == "uncheckable"
        # re-running the decider factors an order above the 2**64 bound
        huge = Verdict("not_realisable", "cyclic-finite-units",
                       f"Z/{2 ** 65 * 3 ** 3}Z", "finite", obstruction={})
        assert certificate_check_status(huge) == "uncheckable"


def _engine(Q: FgAbGroup, cls: str):
    return decide_finite(Q.torsion) if cls == "finite" else \
        {"tn": decide_tn, "any": decide_any}[cls](Q)


class TestTransplants:
    """A definite payload moved to another query or class re-checks as
    'pass' only where the engine does not decide the opposite kind."""

    CLASSES = ("finite", "tn", "any")

    @staticmethod
    def moved(v, query, cls):
        key = "certificate" if v.is_realisable else "obstruction"
        return Verdict(v.kind, v.theorem, query, cls, **{key: v.payload()})

    @pytest.mark.parametrize("to_class", CLASSES)
    def test_no_moved_payload_passes_wrongly(self, to_class):
        groups = [G(*orders)
                  for orders in _groups_over(list(_primes_up_to(64)), 64)]
        ranks = (0,) if to_class == "finite" else (0, 1, 2)
        targets = [FgAbGroup(T, r) for T in groups for r in ranks]
        sources = [decide_finite(T) for T in groups]
        sources += [decide(FgAbGroup(T, r)) for T in groups for r in (0, 1, 2)
                    for decide in (decide_tn, decide_any)]
        rng = random.Random(7)
        engine = {}
        wrong = []
        for v in sources:
            if v.is_unknown:
                continue
            for Q in rng.sample(targets, 12):
                query = format_group(Q)
                if certificate_check_status(
                        self.moved(v, query, to_class)) != "pass":
                    continue
                if query not in engine:
                    engine[query] = _engine(Q, to_class).kind
                if engine[query] not in ("unknown", v.kind):
                    wrong.append((v.theorem, v.kind, v.ring_class, query))
        assert wrong == []

    @pytest.mark.parametrize("source, query, to_class", [
        (lambda: decide_tn(FG([3], 1)), "Z/3Z x Z", "any"),
        (lambda: decide_tn(FG([8, 8])), "Z/8Z x Z/8Z", "any"),
        (lambda: decide_any(FG([5, 5])), "Z/8Z x Z/5Z x Z", "any"),
    ], ids=["even-torsion-required-under-any",
            "finite-units-epsilon-bound-under-any",
            "split-refutation-on-a-cyclic-cover"])
    def test_named_transplant_fails(self, source, query, to_class):
        v = source()
        assert v.is_not_realisable
        assert _engine(parse_group(query), to_class).is_realisable
        assert certificate_check_status(
            self.moved(v, query, to_class)) == "fail"
