"""Integer and polynomial number theory for the realisability criteria.

Factorization is deterministic at desk scale: trial division plus Pollard
rho, with Miller-Rabin on a fixed base set that is proven deterministic for
64-bit inputs.  Anything above 2**64 is rejected outright rather than
half-trusted.

Cyclotomic polynomials are exact (recursive division of x^n - 1); their
factorizations mod q use equal-degree splitting with a fixed seed so that
emitted certificates are byte-reproducible.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, prod

from .caps import CapExceeded
from .record import Frozen, _set


class HypothesisViolated(ValueError):
    """The input lies outside a theorem's hypotheses: an even prime, a
    non-coprime pair, a group that is not a p-group or of the wrong order,
    a non-local ring, a non-cyclic Sylow 2-subgroup, or a model whose
    torsion units are not finite."""


_MAX_FACTOR_INPUT = 2 ** 64

# Proven-deterministic Miller-Rabin bases for n < 3.3 * 10**24 (covers 64-bit).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# bounded; a seed-5 round of the benchmark leaves 94 entries (`decide-stream`)
# or 12 (`oracles`)
@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xF0C5)  # fixed: factorizations must be reproducible
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


class Factorization(Frozen):
    """Prime factorization as strictly increasing (prime, exponent) pairs."""

    _repr_fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        _set(self, "pairs", pairs)
        ps = [p for p, _ in pairs]
        if ps != sorted(set(ps)) or any(e < 1 for _, e in pairs):
            raise ValueError("malformed factorization")

    @property
    def n(self) -> int:
        return prod(p ** e for p, e in self.pairs)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


# bounded; a seed-5 round of the benchmark leaves 200 entries (`decide-stream`)
# or 61 (`oracles`)
@lru_cache(maxsize=1024)
def factorize(n: int) -> Factorization:
    """Full factorization of n >= 1; rejects inputs above 2**64."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > _MAX_FACTOR_INPUT:
        raise CapExceeded(f"{n} exceeds the 2**64 factorization cap")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < 10_000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.extend([f, m // f])
    return Factorization(tuple(sorted(out.items())))


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).pairs:
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    """Euler's totient.

    >>> euler_phi(328)
    160
    """
    if n < 1:
        raise ValueError("phi is defined for n >= 1")
    out = 1
    for p, e in factorize(n).pairs:
        out *= (p - 1) * p ** (e - 1)
    return out


def mult_order(a: int, n: int) -> int:
    """Least lam >= 1 with a**lam == 1 mod n; mult_order(a, 1) == 1."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise HypothesisViolated(f"gcd({a}, {n}) != 1")
    order = euler_phi(n)
    for p, e in factorize(order).pairs:
        for _ in range(e):
            if pow(a, order // p, n) == 1:
                order //= p
            else:
                break
    return order


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f.pairs) == 1:
        return f.pairs[0]
    return None


def is_fermat_prime(q: int) -> bool:
    """True iff q == 2**u + 1 for some u >= 1 and q is prime.

    >>> [q for q in range(2, 70000) if is_fermat_prime(q)]
    [3, 5, 17, 257, 65537]
    """
    if q < 3:
        return False
    u = (q - 1).bit_length() - 1
    return 2 ** u + 1 == q and is_prime(q)


# ---------------------------------------------------------------------------
# integer polynomials, dense little-endian coefficient lists


def poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_divmod_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient of an exact division of integer polynomials (monic-safe)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        if a[i + len(b) - 1] == 0:
            continue
        if a[i + len(b) - 1] % lead:
            raise ValueError("division is not exact")
        c = a[i + len(b) - 1] // lead
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ValueError("division is not exact")
    return poly_trim(q)


# bounded; one round of either benchmark workload leaves 4 entries
@lru_cache(maxsize=128)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Exact coefficients of Phi_n, little-endian, via recursive division of
    x^n - 1.

    >>> cyclotomic_poly(8)
    (1, 0, 0, 0, 1)
    >>> cyclotomic_poly(15)
    (1, -1, 0, 1, -1, 1, 0, -1, 1)
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    xn1 = [-1] + [0] * (n - 1) + [1]
    q = xn1
    for d in divisors(n):
        if d != n:
            q = poly_divmod_exact(q, list(cyclotomic_poly(d)))
    coeffs = tuple(q)
    assert len(coeffs) - 1 == euler_phi(n)
    assert coeffs[-1] == 1
    return coeffs


# ---------------------------------------------------------------------------
# polynomial arithmetic mod a prime q (mod q^b where the divisor is monic)


def _pmod(a: list[int], q: int) -> list[int]:
    return poly_trim([c % q for c in a])


def _pdivmod(a, b, q):
    a = [c % q for c in a]
    b = [c % q for c in b]
    poly_trim(b)
    inv = pow(b[-1], -1, q)
    quo = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % q
        if c:
            quo[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % q
    return poly_trim(quo), poly_trim(a)


def _pgcd(a, b, q):
    a, b = _pmod(a, q), _pmod(b, q)
    while b:
        a, b = b, _pdivmod(a, b, q)[1]
    if a:
        inv = pow(a[-1], -1, q)
        a = [c * inv % q for c in a]
    return a


def _ppowmod(a, e, mod, q):
    result = [1]
    base = _pdivmod(a, mod, q)[1]
    while e:
        if e & 1:
            result = _pdivmod(poly_mul(result, base), mod, q)[1]
        base = _pdivmod(poly_mul(base, base), mod, q)[1]
        e >>= 1
    return result


_EDF_SEED = 0x5EED  # fixed so factor lists are reproducible across runs


def factor_cyclo_mod(n: int, q: int) -> list[tuple[int, ...]]:
    """Monic irreducible factors of Phi_n mod q (odd prime q coprime to n).

    All factors share degree lam = mult_order(q, n), and there are
    phi(n)/lam of them, so a distinct-degree pass is unnecessary; the
    equal-degree split is Cantor-Zassenhaus with a fixed seed.  Factors are
    returned sorted by coefficient tuple.

    >>> factor_cyclo_mod(4, 5)
    [(2, 1), (3, 1)]
    """
    if q == 2 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    if gcd(q, n) != 1:
        raise HypothesisViolated(f"gcd({q}, {n}) != 1")
    lam = mult_order(q, n)
    phi = euler_phi(n)
    target = _pmod(list(cyclotomic_poly(n)), q)
    rng = random.Random(_EDF_SEED)

    def split(f):
        deg = len(f) - 1
        if deg == lam:
            return [f]
        while True:
            h = [rng.randrange(q) for _ in range(deg - 1)] + [1]
            g = _ppowmod(h, (q ** lam - 1) // 2, f, q)
            g = list(g)
            if g:
                g[0] = (g[0] - 1) % q
            else:
                g = [q - 1]
            d = _pgcd(g, f, q)
            if 0 < len(d) - 1 < deg:
                return split(d) + split(_pdivmod(f, d, q)[0])

    factors = split(target)
    assert len(factors) == phi // lam
    factors = [tuple(f) for f in factors]
    factors.sort()
    check = [1]
    for f in factors:
        check = _pmod(poly_mul(check, list(f)), q)
    assert check == target
    return factors


def hensel_lift_factor(n: int, f_mod_q: tuple[int, ...], q: int, b: int) -> tuple[int, ...]:
    """Lift a simple factor f of Phi_n mod q to a monic factor mod q**b.

    Linear Hensel steps; requires gcd(f, Phi_n/f) = 1 mod q, which holds
    whenever q is coprime to n (Phi_n is then squarefree mod q).
    """
    phi = list(cyclotomic_poly(n))
    f = list(f_mod_q)
    g = _pdivmod(_pmod(phi, q), f, q)[0]
    # Bezout: s*f + t*g = 1 mod q
    s, t = _bezout_poly(f, g, q)
    qk = q
    while qk < q ** b:
        mod = qk * q
        prodfg = poly_mul(f, g)
        width = max(len(phi), len(prodfg))
        diff = [x - y for x, y in zip(_pad(list(phi), width), _pad(prodfg, width))]
        assert all(d % qk == 0 for d in diff)
        e = poly_trim([(d // qk) % q for d in diff])
        df = _pdivmod(poly_mul(t, e), f, q)[1]
        dg = _pdivmod(poly_mul(s, e), g, q)[1]
        width = max(len(f), len(df))
        f = poly_trim([(a + qk * c) % mod for a, c in
                       zip(_pad(f, width), _pad(df, width))])
        width = max(len(g), len(dg))
        g = poly_trim([(a + qk * c) % mod for a, c in
                       zip(_pad(g, width), _pad(dg, width))])
        qk = mod
    assert f[-1] == 1 and len(f) == len(f_mod_q)
    rem = _pdivmod(phi, f, q ** b)[1]
    assert not rem, "lift failed to divide Phi_n mod q^b"
    return tuple(f)


def _pad(a, n):
    return a + [0] * max(0, n - len(a))


def _bezout_poly(f, g, q):
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        quo, rem = _pdivmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(s0, poly_mul(quo, s1), q)
        t0, t1 = t1, _psub(t0, poly_mul(quo, t1), q)
    inv = pow(r0[-1], -1, q)
    s = [c * inv % q for c in s0]
    t = [c * inv % q for c in t0]
    return s, t


def _psub(a, b, q):
    n = max(len(a), len(b))
    return poly_trim([(x - y) % q for x, y in zip(_pad(list(a), n), _pad(list(b), n))])


# ---------------------------------------------------------------------------
# Pearson-Schneider covers


class PsFactor(Frozen):
    """One admissible factor: p**lam - 1, or (p-1)*p**k with p odd, k >= 1."""

    _repr_fields = ("value", "kind", "p", "exp")

    def __init__(self, value: int, kind: str, p: int, exp: int):
        _set(self, "value", value)
        _set(self, "kind", kind)  # "prime_power_minus_one" | "totient_times_power"
        _set(self, "p", p)
        _set(self, "exp", exp)  # lam, or k
        if kind == "prime_power_minus_one":
            assert p ** exp - 1 == value
        elif kind == "totient_times_power":
            assert p % 2 == 1 and exp >= 1
            assert (p - 1) * p ** exp == value
        else:
            raise ValueError(f"bad factor kind {kind}")


PsCover = tuple[PsFactor, ...]


def admissible_ps_factors(m: int) -> list[PsFactor]:
    """All admissible factors > 1 dividing m, in increasing value order."""
    out: list[PsFactor] = []
    for d in divisors(m):
        if d == 1:
            continue
        pp = is_prime_power(d + 1)
        if pp:
            out.append(PsFactor(d, "prime_power_minus_one", pp[0], pp[1]))
    for p, e in factorize(m).pairs:
        if p == 2:
            continue
        for k in range(1, e + 1):
            v = (p - 1) * p ** k
            if m % v == 0:
                out.append(PsFactor(v, "totient_times_power", p, k))
    out.sort(key=lambda f: (f.value, f.kind, f.p, f.exp))
    return out


def _covers_dfs(cands, start: int, remaining: int, chosen, covers):
    if remaining == 1:
        covers.append(tuple(chosen))
        return
    for i in range(start, len(cands)):
        f = cands[i]
        if remaining % f.value:
            continue
        if gcd(f.value, remaining // f.value) != 1:
            continue
        chosen.append(f)
        _covers_dfs(cands, i + 1, remaining // f.value, chosen, covers)
        chosen.pop()


def pearson_schneider_covers(m: int) -> list[PsCover]:
    """All ways to write m as a product of pairwise coprime admissible factors.

    An empty result means Z/mZ is not the unit group of any finite ring; for
    m == 1 the single empty cover is returned.  Factors equal to 1 are
    excluded (the empty product already accounts for them), and covers are
    distinguished by their tagged factors, so 6 = 7 - 1 and 6 = (3-1)*3 are
    two different covers of the same integer.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    if m == 1:
        return [()]
    cands = admissible_ps_factors(m)
    covers: list[PsCover] = []
    _covers_dfs(cands, 0, m, [], covers)
    covers.sort(key=lambda c: [(f.value, f.kind) for f in c])
    for cover in covers:
        vals = [f.value for f in cover]
        assert prod(vals) == m
        assert all(gcd(a, b) == 1 for i, a in enumerate(vals) for b in vals[i + 1:])
    return covers


def mersenne_divisor_set(m: int) -> list[int]:
    """Divisors d of m with gcd(d, m/d) = 1 that are products of pairwise
    coprime 2**lam - 1 values (d = 1 included via the empty product).

    >>> mersenne_divisor_set(328)
    [1]
    >>> mersenne_divisor_set(6)
    [1, 3]
    """
    if m % 2:
        raise ValueError("m must be even")
    products = {1}
    lam = 2
    while 2 ** lam - 1 <= m:
        q = 2 ** lam - 1
        if m % q == 0:
            # every product so far divides m, and so does q times a coprime one
            products |= {d * q for d in products if gcd(d, q) == 1}
        lam += 1
    return sorted(d for d in products if gcd(d, m // d) == 1)
