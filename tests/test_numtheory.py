from __future__ import annotations

from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from fuchs.caps import CapExceeded
from fuchs.numtheory import (HypothesisViolated,
                             admissible_ps_factors, cyclotomic_poly,
                             divisors, euler_phi, factor_cyclo_mod, factorize,
                             hensel_lift_factor, is_fermat_prime, is_prime,
                             mersenne_divisor_set, mult_order,
                             pearson_schneider_covers, poly_divmod_exact,
                             poly_mul)


def moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f.pairs):
        return 0
    return -1 if len(f.pairs) % 2 else 1


def cyclotomic_poly_mobius(n: int) -> tuple[int, ...]:
    """Phi_n by the Moebius product formula, the independent reference for
    ``cyclotomic_poly``'s recursive division."""
    num = [1]
    den = [1]
    for d in divisors(n):
        mu = moebius(n // d)
        f = [-1] + [0] * (d - 1) + [1]
        if mu == 1:
            num = poly_mul(num, f)
        elif mu == -1:
            den = poly_mul(den, f)
    return tuple(poly_divmod_exact(num, den))


class TestFactorization:
    def test_reconstructs(self):
        for n in list(range(1, 400)) + [2 ** 31 - 1, 600, 328, 65537 * 3]:
            f = factorize(n)
            assert f.n == n
            assert all(is_prime(p) for p in f.primes())

    def test_rejects_huge(self):
        with pytest.raises(CapExceeded):
            factorize(2 ** 64 + 1)

    def test_divisors(self):
        assert divisors(328) == [1, 2, 4, 8, 41, 82, 164, 328]


class TestPhiAndOrder:
    def test_phi_examples(self):
        assert euler_phi(8) == 4
        assert euler_phi(328) == 160
        assert euler_phi(1) == 1

    def test_order_examples(self):
        assert mult_order(3, 4) == 2
        assert mult_order(41, 8) == 1
        assert mult_order(2, 15) == 4
        assert mult_order(7, 1) == 1

    def test_order_not_coprime(self):
        with pytest.raises(HypothesisViolated):
            mult_order(6, 15)

    @given(st.integers(2, 10_000), st.integers(2, 10_000))
    @settings(max_examples=200)
    def test_order_divides_phi(self, a, n):
        if gcd(a, n) != 1:
            return
        lam = mult_order(a, n)
        assert pow(a, lam, n) == 1
        assert euler_phi(n) % lam == 0
        # minimality on a sample of proper divisors
        for d in divisors(lam)[:-1]:
            assert pow(a, d, n) != 1


class TestFermat:
    def test_examples(self):
        assert is_fermat_prime(17)
        assert is_fermat_prime(5)
        assert not is_fermat_prime(33)
        assert [q for q in range(2, 70_000) if is_fermat_prime(q)] == \
            [3, 5, 17, 257, 65537]


class TestCyclotomic:
    def test_examples(self):
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_poly(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)

    def test_degree_sum_and_special_values(self):
        for n in range(1, 201):
            assert sum(len(cyclotomic_poly(d)) - 1
                       for d in divisors(n)) == n
            coeffs = cyclotomic_poly(n)
            # classical values: Phi_1(0) = -1, Phi_n(0) = 1 for n >= 2;
            # Phi_n(1) = p exactly on prime powers, 1 otherwise
            assert coeffs[0] == (-1 if n == 1 else 1)
            at_one = sum(coeffs)
            if n == 1:
                assert at_one == 0
            else:
                f = factorize(n)
                assert at_one == (f.pairs[0][0] if len(f.pairs) == 1 else 1)

    def test_two_routes_agree(self):
        for n in range(1, 201):
            assert cyclotomic_poly(n) == cyclotomic_poly_mobius(n)

    def test_product_over_divisors_is_xn_minus_1(self):
        for n in (12, 30, 64, 97):
            acc = [1]
            for d in divisors(n):
                acc = poly_mul(acc, list(cyclotomic_poly(d)))
            assert acc == [-1] + [0] * (n - 1) + [1]


class TestFactorCycloMod:
    def test_examples(self):
        assert factor_cyclo_mod(4, 5) == [(2, 1), (3, 1)]  # roots 2 and 3
        assert len(factor_cyclo_mod(8, 41)) == 4
        assert all(len(f) == 2 for f in factor_cyclo_mod(8, 41))
        assert factor_cyclo_mod(4, 3) == [(1, 0, 1)]

    def test_rejects(self):
        with pytest.raises(HypothesisViolated):
            factor_cyclo_mod(15, 3)
        with pytest.raises(ValueError):
            factor_cyclo_mod(5, 2)

    def test_structure(self):
        for n in (3, 4, 5, 8, 12, 15):
            for q in (3, 5, 7, 11, 13, 41):
                if gcd(q, n) != 1:
                    continue
                lam = mult_order(q, n)
                factors = factor_cyclo_mod(n, q)
                assert len(factors) == euler_phi(n) // lam
                assert all(len(f) - 1 == lam for f in factors)
                assert all(f[-1] == 1 for f in factors)
                acc = [1]
                for f in factors:
                    acc = [c % q for c in poly_mul(acc, list(f))]
                    while acc and acc[-1] == 0:
                        acc.pop()
                target = [c % q for c in cyclotomic_poly(n)]
                assert acc == target

    def test_deterministic(self):
        assert factor_cyclo_mod(16, 7) == factor_cyclo_mod(16, 7)

    def test_hensel_lift(self):
        for (n, q, b) in [(8, 41, 2), (4, 3, 3), (12, 7, 2), (5, 11, 2)]:
            f = factor_cyclo_mod(n, q)[0]
            lifted = hensel_lift_factor(n, f, q, b)
            assert len(lifted) == len(f) and lifted[-1] == 1
            assert all((a - c) % q == 0 for a, c in zip(lifted, f))


def brute_force_covers(m):
    """Independent oracle: enumerate subsets of admissible factors with
    divisibility pruning only, post-filtering for product and coprimality."""
    cands = admissible_ps_factors(m)
    out = []

    def rec(i, chosen, product):
        if product == m:
            vals = [f.value for f in chosen]
            if all(gcd(a, b) == 1 for x, a in enumerate(vals)
                   for b in vals[x + 1:]):
                out.append(tuple(chosen))
        if i == len(cands):
            return
        if m % product == 0:
            rec(i + 1, chosen + [cands[i]], product * cands[i].value)
            rec(i + 1, chosen, product)

    if m == 1:
        return [()]
    rec(0, [], 1)
    return [c for c in out]


class TestPearsonSchneider:
    def test_examples(self):
        assert pearson_schneider_covers(328) == []
        assert pearson_schneider_covers(1) == [()]
        six = pearson_schneider_covers(6)
        tags = {tuple((f.value, f.kind) for f in c) for c in six}
        assert ((6, "prime_power_minus_one"),) in tags       # 6 = 7 - 1
        assert ((6, "totient_times_power"),) in tags         # 6 = (3-1)*3
        assert ((2, "prime_power_minus_one"),
                (3, "prime_power_minus_one")) in tags        # 2 = 3-1, 3 = 2^2-1

    def test_post_conditions(self):
        for m in range(1, 300):
            for cover in pearson_schneider_covers(m):
                vals = [f.value for f in cover]
                assert prod(vals) == m
                for a, b in combinations(vals, 2):
                    assert gcd(a, b) == 1

    def test_exhaustive_against_brute_force(self):
        for m in range(1, 2001):
            fast = {tuple((f.value, f.kind, f.p, f.exp) for f in sorted(
                c, key=lambda f: (f.value, f.kind))) for c in
                pearson_schneider_covers(m)}
            slow = {tuple((f.value, f.kind, f.p, f.exp) for f in sorted(
                c, key=lambda f: (f.value, f.kind))) for c in
                brute_force_covers(m)}
            assert fast == slow, m

    @given(st.integers(2001, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_sampled_above(self, m):
        fast = {frozenset((f.value, f.kind) for f in c)
                for c in pearson_schneider_covers(m)}
        slow = {frozenset((f.value, f.kind) for f in c)
                for c in brute_force_covers(m)}
        assert fast == slow


class TestMersenneDivisors:
    def test_examples(self):
        assert mersenne_divisor_set(328) == [1]
        assert mersenne_divisor_set(6) == [1, 3]
        assert mersenne_divisor_set(2) == [1]

    def test_members_decompose(self):
        for m in (6, 42, 630, 328, 2 * 3 * 7 * 31):
            for d in mersenne_divisor_set(m):
                assert m % d == 0 and gcd(d, m // d) == 1
                assert _is_mersenne_product(d)

    def test_complete(self):
        for m in range(2, 5001, 2):
            assert mersenne_divisor_set(m) == [
                d for d in divisors(m)
                if gcd(d, m // d) == 1 and _is_mersenne_product(d)], m


def _is_mersenne_product(d):
    if d == 1:
        return True
    opts = []
    lam = 2
    while 2 ** lam - 1 <= d:
        if d % (2 ** lam - 1) == 0:
            opts.append(2 ** lam - 1)
        lam += 1
    def rec(rest, pool):
        if rest == 1:
            return True
        return any(gcd(v, rest // v) == 1 and rec(rest // v,
                   [w for w in pool if w != v and gcd(w, v) == 1])
                   for v in pool if rest % v == 0)
    return rec(d, opts)


class TestMoebius:
    def test_values(self):
        assert [moebius(n) for n in range(1, 11)] == \
            [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
