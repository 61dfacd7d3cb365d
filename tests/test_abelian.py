"""Canonical forms, normal forms, and structure recovery.

The cokernel oracle here is deliberately independent of the Smith normal
form path: lattice membership is decided by Fraction-based linear solves
and the group structure is reconstructed from an element-order census.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct
from itertools import zip_longest
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from fuchs.abelian import (FgAbGroup, FinAbGroup, abelian_structure, epsilon,
                           format_group, group_from_relations,
                           is_lambda_small, lambda_power_decompose,
                           parse_group, pgroup_basis, prufer_rank,
                           smith_normal_form)
from fuchs.numtheory import HypothesisViolated, factorize


def G(*orders):
    return FinAbGroup.from_orders(orders)


def invariant_factors(group: FinAbGroup) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (largest last) of the canonical
    prime-power form."""
    per_prime: dict[int, list[int]] = {}
    for p, e, m in group.factors:
        per_prime.setdefault(p, []).extend([p ** e] * m)
    cols = [sorted(v, reverse=True) for v in per_prime.values()]
    merged = [prod(t) for t in zip_longest(*cols, fillvalue=1)]
    return tuple(reversed(merged))


def rank_over_q(rows):
    """Rank of an integer matrix over the rationals (exact, Fraction-based)."""
    m = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    nc = len(m[0]) if m else 0
    for c in range(nc):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [a * inv for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestCanonicalForm:
    def test_crt_merge(self):
        assert G(6) == G(2, 3)
        assert G(600) == G(8, 3, 25)
        assert G(4) != G(2, 2)

    def test_trivial(self):
        assert G().is_trivial()
        assert G(1, 1).is_trivial()

    def test_orders_and_exponent(self):
        assert G(4, 6).order() == 24
        assert G(4, 6).exponent() == 12
        assert invariant_factors(G(2, 3)) == (6,)
        assert invariant_factors(G(2, 4, 8, 3, 9, 5)) == (2, 12, 360)

    @given(st.lists(st.integers(2, 64), min_size=0, max_size=6),
           st.randoms())
    @settings(max_examples=120)
    def test_canonicalization_is_shuffle_invariant(self, orders, rng):
        shuffled = list(orders)
        rng.shuffle(shuffled)
        assert G(*orders) == G(*shuffled)

    @given(st.lists(st.integers(2, 48), min_size=0, max_size=5))
    def test_crt_split_invariance(self, orders):
        # replacing any order by its prime-power parts is a no-op
        split = []
        for n in orders:
            split.extend(p ** e for p, e in factorize(n).pairs)
        assert G(*orders) == G(*split)

    def test_isomorphism_is_equality(self):
        assert G(2, 3) == G(6)
        assert G(4) != G(2, 2)
        assert G() == G()


class TestGroupLiterals:
    def test_parse_examples(self):
        got = parse_group("Z/4Z x Z/8Z x Z^2")
        assert got == FgAbGroup(G(4, 8), 2)
        assert parse_group("z/6z X Z") == FgAbGroup(G(6), 1)
        assert parse_group("1") == FgAbGroup(G(), 0)
        assert parse_group("Z^3") == FgAbGroup(G(), 3)

    def test_large_prime_order(self):
        # 2^61 - 1 is prime: trial division up to its square root would take
        # billions of steps, the shared factoriser settles it at once
        q = 2 ** 61 - 1
        assert parse_group(f"Z/{q}Z").torsion.factors == ((q, 1, 1),)

    def test_parse_rejects_junk(self):
        for bad in ("", "Z/xZ", "Q/4Z", "Z/4Z + Z"):
            with pytest.raises(ValueError):
                parse_group(bad)

    @given(st.lists(st.integers(2, 99), max_size=4), st.integers(0, 5))
    def test_round_trip(self, orders, rank):
        grp = FgAbGroup(G(*orders), rank)
        assert parse_group(format_group(grp)) == grp


class TestPruferRank:
    def test_examples(self):
        assert prufer_rank(G(), 3) == 0
        assert prufer_rank(G(5, 5, 25), 5) == 3
        assert prufer_rank(G(8, 41), 2) == 1

    def test_matches_socle_size(self):
        # rank = log_p |{x : p x = 0}| by element enumeration, |G| <= 2^8
        rng = random.Random(7)
        for _ in range(40):
            orders = []
            while prod(orders) * 2 <= 2 ** 8 and rng.random() < 0.8:
                orders.append(rng.choice([2, 3, 4, 5, 8, 9, 16, 25, 27]))
            grp = G(*orders)
            if grp.order() > 2 ** 8:
                continue
            flat = grp.cyclic_orders()
            for p in set(grp.primes()) | {2, 3}:
                socle = sum(
                    1 for x in iproduct(*(range(n) for n in flat))
                    if all((p * c) % n == 0 for c, n in zip(x, flat)))
                rank = 0
                while p ** rank < socle:
                    rank += 1
                assert p ** rank == socle
                assert prufer_rank(grp, p) == rank


class TestLambdaTools:
    def test_small_examples(self):
        assert is_lambda_small(G(9), 3, 1)
        assert is_lambda_small(G(5, 5, 25), 5, 2)
        assert not is_lambda_small(G(3, 3), 3, 1)

    def test_small_needs_p_group(self):
        with pytest.raises(HypothesisViolated):
            is_lambda_small(G(6), 2, 1)

    def test_power_decompose(self):
        V = lambda_power_decompose(G(7, 7, 7, 7, 49, 49), 2)
        assert V == G(7, 7, 49)
        assert lambda_power_decompose(G(5), 2) is None
        any_g = G(4, 9, 5)
        assert lambda_power_decompose(any_g, 1) == any_g

    @given(st.lists(st.sampled_from([3, 9, 27]), min_size=1, max_size=4),
           st.integers(1, 4))
    def test_power_round_trip(self, orders, lam):
        V = G(*orders)
        P = V.power(lam)
        got = lambda_power_decompose(P, lam)
        assert got is not None and got.power(lam) == P


class TestSylowAndEpsilon:
    def test_sylow(self):
        assert G(600).sylow(5) == G(25)
        assert G(600).sylow(7).is_trivial()
        assert G(5, 5, 600).sylow(5) == G(5, 5, 25)

    def test_epsilon(self):
        assert epsilon(G(4, 8)) == 2
        assert epsilon(G(2, 4, 8)) == 1
        assert epsilon(G(9)) is None  # distinct tag, never 0
        assert epsilon(FgAbGroup(G(2), 3)) == 1


def brute_cokernel(rows, n):
    """Independent oracle: structure of Z^n / rowspan via Fraction-based
    lattice membership and an element-order census (full-rank case)."""
    det_rank = rank_over_q(rows)
    assert det_rank == n, "oracle only handles finite cokernels"

    def in_lattice(v):
        # solve x * rows = v over Q, check integrality
        m = [[Fraction(rows[i][j]) for i in range(len(rows))] + [Fraction(v[j])]
             for j in range(n)]
        piv = []
        r = 0
        for c in range(len(rows)):
            src = next((i for i in range(r, n) if m[i][c]), None)
            if src is None:
                continue
            m[r], m[src] = m[src], m[r]
            inv = 1 / m[r][c]
            m[r] = [a * inv for a in m[r]]
            for i in range(n):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            piv.append(c)
            r += 1
        for i in range(r, n):
            if m[i][-1]:
                return False
        sol = {}
        for i, c in enumerate(piv):
            sol[c] = m[i][-1]
        return all(sol.get(c, Fraction(0)).denominator == 1
                   for c in range(len(rows)))

    d = 1
    for i in range(n):
        d *= sum(abs(x) for x in rows[i]) + 1
    # coset representatives by bounded BFS with pairwise membership dedup
    reps = [(0,) * n]
    frontier = [(0,) * n]
    while frontier:
        v = frontier.pop()
        for i in range(n):
            for step in (1, -1):
                w = list(v)
                w[i] += step
                w = tuple(w)
                if max(abs(c) for c in w) > 12:
                    continue
                if any(in_lattice([a - b for a, b in zip(w, r)]) for r in reps):
                    continue
                reps.append(w)
                frontier.append(w)
    census = {}
    for v in reps:
        k = 1
        while not in_lattice([k * c for c in v]):
            k += 1
        census[k] = census.get(k, 0) + 1
    # rebuild the group from order counts, prime by prime
    total = len(reps)
    out = FinAbGroup.trivial()
    for p, vmax in factorize(total).pairs:
        # s_k = #solutions of p^k x = 0; the ratios give the exponent counts
        s = [1]
        k = 1
        while s[-1] < p ** vmax:
            pk = p ** k
            s.append(sum(cnt for order, cnt in census.items() if pk % order == 0))
            k += 1
        deltas = []
        for i in range(1, len(s)):
            ratio = s[i] // s[i - 1]
            assert s[i] % s[i - 1] == 0
            e = 0
            while p ** e < ratio:
                e += 1
            assert p ** e == ratio
            deltas.append(e)
        exps = []
        for k, _ in enumerate(deltas):
            nxt = deltas[k + 1] if k + 1 < len(deltas) else 0
            exps.extend([k + 1] * (deltas[k] - nxt))
        out = out * FinAbGroup.from_orders([p ** e for e in exps])
    return out


class TestGroupFromRelations:
    def test_spec_examples(self):
        got = group_from_relations([[2, 0], [0, 0]], 2)
        assert got == FgAbGroup(G(2), 1)
        got = group_from_relations([[2, 1], [0, 4]], 2)
        assert got == FgAbGroup(G(8), 0)
        assert group_from_relations([], 3) == FgAbGroup(G(), 3)

    def test_against_brute_force(self):
        rng = random.Random(13)
        tried = 0
        while tried < 25:
            n = rng.choice([1, 2, 3])
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rank_over_q(rows) != n:
                continue
            size = abs(_det(rows))
            if not 1 <= size <= 60:
                continue
            tried += 1
            expected = brute_cokernel(rows, n)
            got = group_from_relations(rows, n)
            assert got.free_rank == 0
            assert got.torsion == expected, (rows, str(got.torsion), str(expected))

    def test_free_rank_against_rational_rank(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.choice([1, 2, 3])
            nrows = rng.choice([0, 1, 2, 3])
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(nrows)]
            got = group_from_relations(rows, n)
            assert got.free_rank == n - rank_over_q(rows) if rows else n


def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        out += (-1) ** j * rows[0][j] * _det(minor)
    return out


class TestNormalForms:
    def test_snf_examples(self):
        assert smith_normal_form([[2, 1], [0, 4]]) == [1, 8]
        # invariant check: 300 = det, gcd of entries 1, gcd of 2x2 minors 10
        assert smith_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == [1, 10, 30]

    def test_snf_transforms(self):
        rng = random.Random(3)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            A = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
            diag, U, V = smith_normal_form(A, want_transforms=True)
            prod_m = _matmul(_matmul(U, A), V)
            for i in range(nr):
                for j in range(nc):
                    want = diag[i] if i == j and i < len(diag) else 0
                    assert prod_m[i][j] == want
            for i in range(len(diag) - 1):
                if diag[i]:
                    assert diag[i + 1] % diag[i] == 0

    def test_snf_of_many_relations(self):
        # the relations of Z[zeta_8]/P^3 for q = 23, f = x^2 + 18x + 1: the
        # q^3 zeta^j, then q^i f(zeta)^(3 - i) zeta^j mod q^3 for i < 3.
        # Swapping in each remainder as the pivot at once grew entries past
        # 10^280000 within two seconds
        rows = [[12167, 0, 0, 0], [0, 12167, 0, 0], [0, 0, 12167, 0],
                [0, 0, 0, 12167], [11193, 0, 974, 5940], [0, 828, 7498, 828],
                [529, 9522, 529, 0], [6227, 11193, 0, 974],
                [11339, 0, 828, 7498], [0, 529, 9522, 529],
                [11193, 6227, 11193, 0], [4669, 11339, 0, 828],
                [11638, 0, 529, 9522], [0, 11193, 6227, 11193],
                [11339, 4669, 11339, 0], [2645, 11638, 0, 529]]
        assert smith_normal_form(rows) == [1, 1, 12167, 12167]
        assert group_from_relations(rows, 4) == FgAbGroup(G(12167, 12167), 0)


class TestBlackBoxStructure:
    def test_cyclic(self):
        got = abelian_structure(list(range(12)), lambda a, b: (a + b) % 12, 0)
        assert got == G(12)

    def test_mixed(self):
        el = list(iproduct(range(2), range(4), range(3)))

        def op(a, b):
            return tuple((x + y) % m for x, y, m in zip(a, b, (2, 4, 3)))

        assert abelian_structure(el, op, (0, 0, 0)) == G(2, 4, 3)

    def test_multiplicative(self):
        # (Z/35)* = Z/4 x Z/6
        el = [x for x in range(35) if x % 5 and x % 7]
        got = abelian_structure(el, lambda a, b: a * b % 35, 1)
        assert got == G(4, 3, 2)


def _power(op, identity, x, k):
    acc = identity
    while k:
        if k & 1:
            acc = op(acc, x)
        x = op(x, x)
        k >>= 1
    return acc


def _peeled_structure(elements, op, identity):
    """Independent reference for :func:`abelian_structure`: project onto each
    Sylow part with the cofactor power and read the cyclic orders off the
    basis that :func:`pgroup_basis` peels."""
    elems = sorted(set(elements))
    n = len(elems)
    total = FinAbGroup.trivial()
    for p, v in factorize(n).pairs:
        cof = n // p ** v
        part = sorted({_power(op, identity, x, cof) for x in elems})
        total = total * FinAbGroup.from_orders(
            [o for _, o in pgroup_basis(part, op, identity, p)])
    assert total.order() == n
    return total


def _reference_structure(elements, op, identity):
    """Independent reference for :func:`abelian_structure`: the same kernel
    count, but with the p-power map of every prime taken on all n elements,
    not on the part of G prime to the primes already done."""
    elems = set(elements)
    n = len(elems)
    factors = []
    for p, v in factorize(n).pairs:
        roots: dict = {}
        for x in elems:
            roots.setdefault(_power(op, identity, x, p), []).append(x)
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
    return FinAbGroup(tuple(factors))


def _one_plus_n(A):
    """Every element 1 + n of the TN model A, n in N_tors."""
    one = A.one()[0]
    return [(one, t) for t in iproduct(*(range(o) for o in A.tors_orders))]


def _full_torsion_units(A):
    """Every torsion unit of the TN model A, from the full coset sweep: each
    lift of a torsion unit of B = A/N_tors times every element of
    1 + N_tors.  The units over a unit of B are exactly lift * (1 + N_tors),
    since N_tors is nilpotent."""
    from fuchs.tnlab import _b_torsion_units
    b_units = _b_torsion_units(A)
    one_plus_n = _one_plus_n(A)
    no_tors = (0,) * A.ntors()
    lifted = {A.mul((b, no_tors), n) for b in b_units for n in one_plus_n}
    assert len(lifted) == len(b_units) * len(one_plus_n)
    return lifted


_PRIME_POWERS = [q for q in range(2, 2001) if len(factorize(q).pairs) == 1]


@st.composite
def _cyclic_orders(draw):
    """Prime-power cyclic orders whose product is at most 2000."""
    orders = []
    while draw(st.booleans()):
        q = draw(st.sampled_from([q for q in _PRIME_POWERS
                                  if q * prod(orders) <= 2000]))
        orders.append(q)
        if prod(orders) * 2 > 2000:
            break
    return orders


class TestStructureByCounting:
    def test_corpus_unit_groups(self):
        # |G[p^j]| = p^(sum_i min(e_i, j)) for every prime p and every j:
        # counting the units killed by p^j fixes the type without peeling
        from fuchs.finring import build_corpus, unit_elements, unit_group
        from fuchs.numtheory import factorize
        for A in build_corpus():
            units = unit_elements(A)
            got = unit_group(A)
            assert got.order() == len(units)
            for p, v in factorize(len(units)).pairs:
                exps = [e for q, e, m in got.factors if q == p for _ in range(m)]
                for j in range(1, v + 1):
                    killed = sum(1 for x in units
                                 if _power(A.mul, A.one, x, p ** j) == A.one)
                    assert killed == p ** sum(min(e, j) for e in exps), \
                        (A.name, p, j)

    def test_agrees_with_peeling_on_corpus_unit_groups(self):
        from fuchs.finring import build_corpus, unit_elements, unit_group
        for A in build_corpus():
            units = unit_elements(A)
            assert _peeled_structure(units, A.mul, A.one) == unit_group(A), \
                A.name

    def test_agrees_with_peeling_on_adjoint_groups(self):
        from fuchs.radical import enumerate_radical_rings
        for (p, k) in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                       (5, 1), (5, 2)]:
            for N in enumerate_radical_rings(p, k):
                peeled = _peeled_structure(list(N.elements()), N.circle,
                                           N.zero())
                assert peeled == N.adjoint_group(), N.mult

    def test_agrees_with_peeling_on_tn_torsion_groups(self):
        from fuchs.tnlab import (EXAMPLE_NAMES, _b_torsion_units,
                                 _torsion_unit_data, load_example)
        from test_tnlab import quotient_product
        for name in EXAMPLE_NAMES:
            A = load_example(name)
            data = _torsion_unit_data(A)
            assert _peeled_structure(_one_plus_n(A), A.mul, A.one()) \
                == data.one_plus_n, name
            assert _peeled_structure(_b_torsion_units(A), *quotient_product(A)) \
                == data.b_tors, name
            assert _peeled_structure(_full_torsion_units(A), A.mul, A.one()) \
                == data.a_tors, name

    @given(_cyclic_orders(), st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_black_box_relabelled_groups(self, orders, seed):
        # the operation only sees shuffled integer labels, never coordinates
        tuples = list(iproduct(*(range(q) for q in orders)))
        labels = list(range(len(tuples)))
        random.Random(seed).shuffle(labels)
        label_of = dict(zip(tuples, labels))
        point_of = dict(zip(labels, tuples))

        def op(a, b):
            return label_of[tuple((x + y) % q for x, y, q
                                  in zip(point_of[a], point_of[b], orders))]

        got = abelian_structure(labels, op, label_of[(0,) * len(orders)])
        assert got == FinAbGroup.from_orders(orders)

    def test_non_group_raises(self):
        # {0, 1, 2, 3} is not closed under addition mod 5
        with pytest.raises(AssertionError):
            abelian_structure(range(4), lambda a, b: (a + b) % 5, 0)

    def test_two_prime_non_group_raises(self):
        # Z/12 with 1 + 1 sent outside the set: the 2-power kernels still
        # count 4 elements, but the 4th powers leave the set, which must be
        # an assertion and not a failed lookup in the power map
        def op(a, b):
            return 12 if a == b == 1 else (a + b) % 12

        with pytest.raises(AssertionError, match="leave the set"):
            abelian_structure(range(12), op, 0)


class TestSylowRestriction:
    """``abelian_structure`` restricts each prime after the first to the
    part of G prime to the primes already done; the reference takes every
    power map on the whole group."""

    def test_corpus_unit_groups(self):
        from fuchs.finring import build_corpus, unit_elements
        for A in build_corpus():
            units = unit_elements(A)
            assert abelian_structure(units, A.mul, A.one) \
                == _reference_structure(units, A.mul, A.one), A.name

    def test_adjoint_groups(self):
        from fuchs.radical import enumerate_radical_rings
        for (p, k) in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                       (5, 1), (5, 2), (5, 3)]:
            for N in enumerate_radical_rings(p, k):
                elems = list(N.elements())
                assert abelian_structure(elems, N.circle, N.zero()) \
                    == _reference_structure(elems, N.circle, N.zero()), N.mult

    def test_tn_torsion_units(self):
        from fuchs.tnlab import (EXAMPLE_NAMES, build_construction_model,
                                 load_example, torsion_units)
        from test_tnlab import _group_ring_model
        examples = [load_example(name) for name in EXAMPLE_NAMES]
        constructions = [
            build_construction_model(k, FinAbGroup.from_orders(H))
            for k, H in [(2, [27]), (4, [9, 9]), (8, [13, 13]), (2, [3, 5, 7]),
                         (2, [27, 27]), (4, [289])]]
        # B*_tors and 1 + N_tors share the prime 2 in these
        group_rings = [_group_ring_model(k, 3, True) for k in (1, 2, 4)]
        for A in examples + constructions + group_rings:
            assert _reference_structure(_full_torsion_units(A), A.mul,
                                        A.one()) == torsion_units(A), A.name
        # the construction models are the ones with several primes
        assert all(len(torsion_units(A).primes()) >= 2 for A in constructions)
