"""TN models: the shipped examples, cyclotomic quotients, and the
rank-zero construction."""

from __future__ import annotations

import copy
import random
import sys
from itertools import product as iproduct
from math import gcd, lcm
from pathlib import Path

import pytest

from fuchs.abelian import FinAbGroup, group_from_relations
from fuchs.caps import TN_UNIT_CANDIDATE_CAP, CapExceeded
from fuchs.numtheory import (HypothesisViolated, factor_cyclo_mod, factorize,
                             mult_order)
from fuchs.radical import radical_ring_from_mult
from fuchs.table import InvalidRing, pairs
from fuchs.tnlab import (CycloBase, PrimePowerIdealQuotient, TnModel,
                         _b_torsion_units, _roots_of_unity,
                         adjoint_of_nil_torsion, build_construction_model,
                         cyclotomic_quotient_group, load_example, nil_torsion,
                         quotient_torsion_units, sequence_splits,
                         torsion_units, EXAMPLE_NAMES)
from fuchs.realize import g_value


def G(*orders):
    return FinAbGroup.from_orders(orders)


# ---------------------------------------------------------------------------
# the product as it was computed before it was compiled into structure
# constants: straight from the nested table, one basis pair at a time


def _entry(A, a, b):
    """(free coeffs, torsion coords) of basis product a*b."""
    if a > b:
        a, b = b, a
    n = A.nfree() + A.ntors()
    return A.mult[a * n - a * (a - 1) // 2 + (b - a)]


def _act(A, coeff, tors_vec):
    """Action of a base element (poly in zeta) on a torsion vector, from the
    powers of the scalar_action matrix."""
    t = A.ntors()
    acc = [0] * t
    power = [tuple(int(m == j) for m in range(t)) for j in range(t)]
    for c in coeff:
        for j, v in enumerate(tors_vec):
            for m, w in enumerate(power[j]):
                acc[m] += c * v * w
        power = [tuple(sum(col[m2] * A.scalar_action[m2][m] for m2 in range(t))
                       for m in range(t)) for col in power]
    return tuple(a % n for a, n in zip(acc, A.tors_orders))


def _reference_mul(A, x, y):
    f, t = A.nfree(), A.ntors()
    xf, xt = x
    yf, yt = y
    rf = [list(A.base.zero()) for _ in range(f)]
    rt = [0] * t

    def add_tors(vec, scale=1):
        for m, v in enumerate(vec):
            if v:
                rt[m] += scale * v

    for i, a in enumerate(xf):
        if not any(a):
            continue
        for i2, b in enumerate(yf):
            if not any(b):
                continue
            c = A.base.mul(a, b)
            entry_free, entry_tors = _entry(A, i, i2)
            for e, coeff in enumerate(entry_free):
                if any(coeff):
                    prodc = A.base.mul(c, coeff)
                    for m, v in enumerate(prodc):
                        rf[e][m] += v
            if any(entry_tors):
                add_tors(_act(A, c, entry_tors))
        for j, nco in enumerate(yt):
            if nco:
                _, entry_tors = _entry(A, i, f + j)
                add_tors(_act(A, a, entry_tors), nco)
    for j, nco in enumerate(xt):
        if not nco:
            continue
        for i2, b in enumerate(yf):
            if any(b):
                _, entry_tors = _entry(A, i2, f + j)
                add_tors(_act(A, b, entry_tors), nco)
        for j2, nco2 in enumerate(yt):
            if nco2:
                _, entry_tors = _entry(A, f + j, f + j2)
                add_tors(entry_tors, nco * nco2)
    free = tuple(tuple(v for v in row) for row in rf)
    tors = tuple(a % n for a, n in zip(rt, A.tors_orders))
    return (free, tors)


def quotient_product(A):
    """The product and identity of B = A/N_tors on free coordinate tuples:
    A's product on elements with no torsion, read on the free block."""
    no_tors = (0,) * A.ntors()
    return (lambda x, y: A.mul((x, no_tors), (y, no_tors))[0]), A.one()[0]


def _kernel_models():
    # the shipped examples and construction models with lam = 1 and 2
    # blocks, over bases of degree 1, 2 and 4
    models = [load_example(name) for name in EXAMPLE_NAMES]
    for k, H in ((2, [27]), (4, [9, 9]), (8, [13, 13])):
        models.append(build_construction_model(k, G(*H)))
    return models


def _flat_basis(A):
    """zeta^d e_i for every free index i and d < phi(k), then every t_j."""
    f, t, deg = A.nfree(), A.ntors(), A.base.degree
    out = []
    for i in range(f):
        for d in range(deg):
            coeff = tuple(int(m == d) for m in range(deg))
            out.append((tuple(coeff if e == i else A.base.zero()
                              for e in range(f)), (0,) * t))
    for j in range(t):
        out.append(A.from_torsion(tuple(int(m == j) for m in range(t))))
    return out


class TestCycloBase:
    def test_gaussian_arithmetic(self):
        zi = CycloBase(4)
        i = zi.zeta()
        assert zi.mul(i, i) == zi.neg(zi.one())
        assert zi.mul(zi.add(zi.one(), i), zi.add(zi.one(), zi.neg(i))) == (2, 0)

    def test_reduction(self):
        z8 = CycloBase(8)
        z = z8.zeta()
        acc = z8.one()
        for _ in range(8):
            acc = z8.mul(acc, z)
        assert acc == z8.one()  # zeta_8^8 = 1
        acc = z8.one()
        for _ in range(4):
            acc = z8.mul(acc, z)
        assert acc == z8.neg(z8.one())  # zeta_8^4 = -1
        # zeta_power(s) is the s-fold product of zeta, for s past k too
        for k in range(1, 13):
            base = CycloBase(k)
            acc = base.one()
            for s in range(3 * k):
                assert base.zeta_power(s) == acc, (k, s)
                acc = base.mul(acc, base.zeta())
            assert base.zeta_power(k) == base.one()


# ---------------------------------------------------------------------------
# the shipped examples built from their definitions, the reference that the
# files under fuchs/data are compared against


def _example_one_model() -> TnModel:
    """The order-2^7 model with N = (Z/2)^4 but 1+N = Z/2 x Z/2 x Z/4:
    base Z[i], free {1, x} with x^2 = 1 + y, torsion {y, xy, y2, xy2}."""
    text = """\
name = paper-7-1
kind = tn
conductor = 4
free_basis = u x
tors_basis = y:2 xy:2 y2:2 xy2:2
scalar_action y = y
scalar_action xy = xy
scalar_action y2 = y2
scalar_action xy2 = xy2
mult u u = u
mult u x = x
mult u y = y
mult u xy = xy
mult u y2 = y2
mult u xy2 = xy2
mult x x = u + y
mult x y = xy
mult x xy = y + y2
mult x y2 = xy2
mult x xy2 = y2
mult y y = y2
mult y xy = xy2
mult y y2 = 0
mult y xy2 = 0
mult xy xy = y2
mult xy y2 = 0
mult xy xy2 = 0
mult y2 y2 = 0
mult y2 xy2 = 0
mult xy2 xy2 = 0
"""
    return TnModel.from_presentation(text)


def _example_two_model(v: int) -> TnModel:
    """The Z/4 x Z/2v family: base Z[i], free power basis of x with
    x^v = 1 + y, a single torsion symbol y of order 2 killed by (x - 1)."""
    if v not in (2, 4):
        raise ValueError("the shipped family uses v in {2, 4}")
    free = ["u"] + [f"x{i}" if i > 1 else "x" for i in range(1, v)]
    lines = [f"name = paper-7-2-v{v}", "kind = tn", "conductor = 4",
             "free_basis = " + " ".join(free), "tors_basis = y:2",
             "scalar_action y = y"]
    def sym(i):
        return free[i]
    for i in range(v):
        for j in range(i, v):
            s = i + j
            if s == 0:
                val = "u"
            elif s < v:
                val = sym(s)
            else:
                wrapped = sym(s - v)
                val = f"{wrapped} + y"
            lines.append(f"mult {sym(i)} {sym(j)} = {val}")
    for i in range(v):
        lines.append(f"mult {sym(i)} y = y")
    lines.append("mult y y = 0")
    return TnModel.from_presentation("\n".join(lines) + "\n")


class TestShippedModels:
    def test_first_model_values(self):
        A = load_example("paper-7-1")
        assert nil_torsion(A).additive_group() == G(2, 2, 2, 2)
        assert adjoint_of_nil_torsion(A) == G(2, 2, 4)
        assert quotient_torsion_units(A) == G(2, 4)
        assert torsion_units(A) == G(2, 2, 4, 8)
        assert sequence_splits(A) is False

    def test_family_values(self):
        A = load_example("paper-7-2-v4")
        assert nil_torsion(A).additive_group() == G(2)
        assert adjoint_of_nil_torsion(A) == G(2)
        assert torsion_units(A) == G(4, 8)
        assert sequence_splits(A) is False

        A = load_example("paper-7-2-v2")
        assert torsion_units(A) == G(4, 4)
        assert sequence_splits(A) is False

    def test_golden_files_frozen(self):
        for name, builder in [("paper-7-1", _example_one_model),
                              ("paper-7-2-v2", lambda: _example_two_model(2)),
                              ("paper-7-2-v4", lambda: _example_two_model(4))]:
            assert load_example(name) == builder()
        assert set(EXAMPLE_NAMES) == {"paper-7-1", "paper-7-2-v2", "paper-7-2-v4"}

    def test_exact_sequence_cardinality(self):
        for A in (load_example("paper-7-1"), load_example("paper-7-2-v2"),
                  load_example("paper-7-2-v4")):
            n = nil_torsion(A).order()
            assert torsion_units(A).order() == n * quotient_torsion_units(A).order()

    def test_epsilon_bound_spot_check(self):
        # models with finite torsion units keep epsilon <= 2
        from fuchs.abelian import epsilon
        for A in (load_example("paper-7-1"), load_example("paper-7-2-v2"),
                  load_example("paper-7-2-v4")):
            assert epsilon(torsion_units(A)) <= 2

    def test_base_root_keeps_its_order(self):
        # the distinguished root of unity of the base stays of full order in B
        for A in (load_example("paper-7-1"), load_example("paper-7-2-v4")):
            base = A.base
            f = A.nfree()
            i_elem = tuple(base.zeta() if e == 0 else base.zero() for e in range(f))
            mul, one = quotient_product(A)
            acc = i_elem
            order = 1
            while acc != one:
                acc = mul(acc, i_elem)
                order += 1
                assert order <= 2 * A.conductor
            assert order == A.conductor

    def test_validation_rejects_broken_tables(self):
        A = load_example("paper-7-1")
        text = A.to_presentation().replace("mult x xy = y + y2",
                                           "mult x xy = y")
        with pytest.raises(InvalidRing):
            TnModel.from_presentation(text)

    def test_validation_rejects_cross_order_products(self):
        # y has order 2 but the product entry would need order 4
        text = """\
name = broken
kind = tn
conductor = 4
free_basis = u
tors_basis = y:2 w:4
scalar_action y = y
scalar_action w = w
mult u u = u
mult u y = y
mult u w = w
mult y y = 0
mult y w = w
mult w w = 0
"""
        with pytest.raises(InvalidRing):
            TnModel.from_presentation(text)

    def test_validation_rejects_non_nilpotent_torsion(self):
        # y^2 = y: the torsion ideal is not nil, so no TN model
        text = """\
name = idempotent
kind = tn
conductor = 4
free_basis = u
tors_basis = y:2
scalar_action y = y
mult u u = u
mult u y = y
mult y y = y
"""
        with pytest.raises(InvalidRing, match="not nilpotent"):
            TnModel.from_presentation(text)

    _UY = """\
name = uy
kind = tn
conductor = 4
free_basis = u
tors_basis = y:2
scalar_action y = y
mult u u = u
mult u y = {}
mult y y = 0
"""

    def test_free_coefficient_that_reduces_to_zero_is_accepted(self):
        # 1 + z^2 = Phi_4(z) is 0 in Z[i], so u*y = (1+z^2)*u + y is u*y = y
        A = TnModel.from_presentation(self._UY.format("(1+z^2)*u + y"))
        assert A == TnModel.from_presentation(self._UY.format("y"))
        with pytest.raises(InvalidRing, match="torsion ideal is not closed"):
            TnModel.from_presentation(self._UY.format("(z)*u + y"))


class TestCompiledProduct:
    @pytest.mark.parametrize("A", _kernel_models(), ids=lambda A: A.name)
    def test_matches_reference_on_flat_basis(self, A):
        basis = _flat_basis(A)
        for x in basis:
            for y in basis:
                assert A.mul(x, y) == _reference_mul(A, x, y), (x, y)

    @pytest.mark.parametrize("A", _kernel_models(), ids=lambda A: A.name)
    def test_matches_reference_on_random_pairs(self, A):
        rng = random.Random(20240601)
        f, deg = A.nfree(), A.base.degree

        def element():
            free = tuple(tuple(rng.choice((-3, -2, -1, 0, 1, 2, 5))
                               for _ in range(deg)) for _ in range(f))
            return (free, tuple(rng.randrange(n) for n in A.tors_orders))

        for _ in range(150):
            x, y = element(), element()
            assert A.mul(x, y) == _reference_mul(A, x, y), (x, y)

    def test_malformed_layouts_raise_invalid_model(self):
        good = build_construction_model(4, G(5))
        fields = (good.conductor, good.free_names, good.tors_names,
                  good.tors_orders, good.scalar_action, good.mult)
        broken = [
            (4, (), (), (), (), ((),)),                    # no identity
            fields[:3] + ((0,),) + fields[4:],             # order 0
            fields[:3] + ((5, 5),) + fields[4:],           # orders vs names
            fields[:5] + (fields[5][:-1],),                # table too short
            fields[:5] + (fields[5][:-1] + (((), ()),),),  # entry shape
            fields[:4] + (((1, 0),),) + fields[5:],        # action shape
        ]
        for args in broken:
            with pytest.raises(InvalidRing):
                TnModel(*args)


class TestCyclotomicQuotients:
    def test_spec_examples(self):
        f = factor_cyclo_mod(4, 5)[0]
        assert cyclotomic_quotient_group(
            PrimePowerIdealQuotient(4, 5, f, 1)) == G(5)
        f = factor_cyclo_mod(8, 41)[0]
        assert cyclotomic_quotient_group(
            PrimePowerIdealQuotient(8, 41, f, 2)) == G(41 ** 2)
        f = factor_cyclo_mod(4, 3)[0]
        assert cyclotomic_quotient_group(
            PrimePowerIdealQuotient(4, 3, f, 1)) == G(3, 3)

    def test_not_coprime(self):
        with pytest.raises(HypothesisViolated):
            cyclotomic_quotient_group(PrimePowerIdealQuotient(4, 2, (0, 1), 1))

    def test_rejects_a_bad_factor(self):
        # 2 + 5x is 2 mod 5, not a degree-1 factor of x^2 + 1
        with pytest.raises(ValueError, match=r"factor \(2, 5\) has leading"):
            cyclotomic_quotient_group(PrimePowerIdealQuotient(4, 5, (2, 5), 1))
        with pytest.raises(ValueError, match="does not divide"):
            cyclotomic_quotient_group(PrimePowerIdealQuotient(4, 5, (1, 1), 1))

    def test_acceptance_slice(self):
        # k in {3,4,5,8,12}, primes q <= 50 coprime to k, b <= 2
        primes = [q for q in range(3, 51)
                  if all(q % d for d in range(2, q))]
        for k in (3, 4, 5, 8, 12):
            for q in primes:
                if gcd(q, k) != 1:
                    continue
                lam = mult_order(q, k)
                f = factor_cyclo_mod(k, q)[0]
                for b in (1, 2):
                    got = cyclotomic_quotient_group(
                        PrimePowerIdealQuotient(k, q, f, b))
                    assert got == G(*([q ** b] * lam)), (k, q, b)


class TestConstruction:
    def test_spec_examples(self):
        m = build_construction_model(4, G(3, 3))
        assert nil_torsion(m).additive_group() == G(3, 3)
        assert adjoint_of_nil_torsion(m) == G(3, 3)

        m = build_construction_model(4, G(5))
        assert nil_torsion(m).additive_group() == G(5)

        with pytest.raises(HypothesisViolated):
            build_construction_model(4, G(3))

    def test_torsion_units_of_construction(self):
        # the full unit computation confirms the split: A*_tors = mu_k x H
        cases = [(4, G(5)), (4, G(3, 3)), (8, G(41)), (2, G(7)), (8, G(3, 3))]
        for k, H in cases:
            m = build_construction_model(k, H)
            expected = G(max(2, k) if k % 2 == 0 else 2 * k) * H
            assert torsion_units(m) == expected, (k, str(H))
            assert sequence_splits(m) is True

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolated):
            build_construction_model(4, G(2))   # even order
        with pytest.raises(HypothesisViolated):
            build_construction_model(3, G(3))   # not coprime
        with pytest.raises(HypothesisViolated):
            build_construction_model(8, G(5))   # lam(5,8)=2 but Z/5 not a square

    def test_deeper_exponent_uses_hensel(self):
        m = build_construction_model(4, G(9, 9))  # lam(3,4)=2, order 3^4
        assert nil_torsion(m).additive_group() == G(9, 9)
        assert torsion_units(m) == G(4) * G(9, 9)

    @pytest.mark.parametrize("k, H, filename", [
        (2, [27], "construction-k2-27.tn"), (4, [9, 9], "construction-k4-9-9.tn"),
        (8, [13, 13], "construction-k8-13-13.tn")])
    def test_builder_prints_the_shipped_file(self, k, H, filename):
        text = (Path(__file__).resolve().parent / "data" / filename).read_text(
            encoding="utf-8")
        assert build_construction_model(k, G(*H)).to_presentation() == text


def _group_ring_model(k: int, n: int, torsion: bool) -> TnModel:
    """Z[zeta_k][C_n] on the free basis u x1 ... x(n-1), x_i x_j = x_(i+j
    mod n); with ``torsion`` also y of order 2, fixed by zeta and by every
    x_i, with y y = 0.  The roots of x are the n-th roots of unity, so for
    n not dividing k they lie outside Z[zeta_k]."""
    free = ["u"] + [f"x{i}" for i in range(1, n)]
    lines = ["kind = tn", f"conductor = {k}", "free_basis = " + " ".join(free),
             "tors_basis = y:2" if torsion else "tors_basis ="]
    if torsion:
        lines.append("scalar_action y = y")
    for i in range(n):
        lines += [f"mult {free[i]} {free[j]} = {free[(i + j) % n]}"
                  for j in range(i, n)]
        if torsion:
            lines.append(f"mult {free[i]} y = y")
    if torsion:
        lines.append("mult y y = 0")
    return TnModel.from_presentation("\n".join(lines) + "\n")


class TestTorsionUnitsBeyondTheBase:
    """B*_tors when the roots of the generator need Z[zeta_L], L != k."""

    @pytest.mark.parametrize("k, n, torsion, b_tors, a_tors", [
        (2, 3, False, G(2, 3), G(2, 3)),
        (4, 3, True, G(4, 3), G(2, 4, 3)),
        (3, 2, False, G(2, 2, 3), G(2, 2, 3)),
        (5, 2, False, G(2, 2, 5), G(2, 2, 5)),
        (3, 5, False, G(2, 3, 5), G(2, 3, 5)),
        (4, 5, True, G(4, 5), G(2, 4, 5)),
        (1, 7, False, G(2, 7), G(2, 7))])
    def test_group_ring_values(self, k, n, torsion, b_tors, a_tors):
        A = _group_ring_model(k, n, torsion)
        assert quotient_torsion_units(A) == b_tors
        assert torsion_units(A) == a_tors

    @pytest.mark.parametrize("model, n", [
        (lambda: _group_ring_model(2, 3, False), 3),
        (lambda: _group_ring_model(4, 3, True), 3),
        (lambda: _group_ring_model(3, 2, False), 2),
        (lambda: _group_ring_model(5, 2, False), 2),
        (lambda: load_example("paper-7-1"), 2),
        (lambda: load_example("paper-7-2-v2"), 2),
        (lambda: _group_ring_model(1, 7, False), 7)],
        ids=["k2-n3", "k4-n3-y", "k3-n2", "k5-n2", "paper-7-1", "paper-7-2-v2",
             "k1-n7"])
    def test_against_a_box_search(self, model, n):
        # every torsion unit of these B has coordinates in {-1, 0, 1}, and
        # its order divides 2 lcm(k, n), the order of the roots of unity of
        # every Z[zeta_L] the generator x can map to (x^n = 1 in B)
        A = model()
        mul, one = quotient_product(A)
        f, deg = A.nfree(), A.base.degree

        def power(x, e):
            acc = one
            while e:
                if e & 1:
                    acc = mul(acc, x)
                x, e = mul(x, x), e >> 1
            return acc

        exponent = 2 * lcm(A.conductor, n)
        box = (tuple(tuple(c[e * deg:(e + 1) * deg]) for e in range(f))
               for c in iproduct((-1, 0, 1), repeat=f * deg))
        expected = {x for x in box if power(x, exponent) == one}
        found = _b_torsion_units(A)
        assert len(found) == len(set(found))
        assert set(found) == expected

    def test_sweep_above_the_candidate_cap_raises(self):
        # Z[zeta_8][C_8]: x -> zeta_8^j fixes zeta_8, so each of the 8
        # components is its own Galois orbit, and 8^8 = 16,777,216
        # root-of-unity tuples are refused before the first one is tried
        A = _group_ring_model(8, 8, False)
        with pytest.raises(CapExceeded, match=f"cap {TN_UNIT_CANDIDATE_CAP}"):
            torsion_units(A)


def _benchmark_construction_models():
    """The construction models of the benchmark's TN strata, then the
    shipped construction files."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    models = [build_construction_model(k, G(*H))
              for menu, _ in workloads.TN_STRATA for k, H in menu]
    data = Path(__file__).resolve().parent / "data"
    return models + [TnModel.from_presentation(path.read_text(encoding="utf-8"))
                     for path in sorted(data.glob("construction-k*.tn"))]


class TestOneWalk:
    """B*_tors of every model comes from one walk of the generator x."""

    def test_rank_one_free_part_gives_the_base_roots(self):
        # with f = 1, B = Z[zeta_k] and x = 1: the one component is Z[zeta_k]
        models = _benchmark_construction_models()
        assert len(models) == 36
        for A in models:
            assert A.nfree() == 1
            reference = [(z,) for z in _roots_of_unity(A.conductor)]
            found = _b_torsion_units(A)
            assert len(found) == len(set(found))
            assert set(found) == set(reference), A.name

    def test_order_cap_is_inclusive(self, monkeypatch):
        # x has order 4 in B for paper-7-2-v4 (x^4 = 1 + y): a cap of 4
        # still finds it, and a cap of 3 refuses the walk
        import fuchs.tnlab as tnlab
        A = load_example("paper-7-2-v4")
        monkeypatch.setattr(tnlab, "_ORDER_SEARCH_CAP", 4)
        assert len(_b_torsion_units(A)) == quotient_torsion_units(A).order()
        monkeypatch.setattr(tnlab, "_ORDER_SEARCH_CAP", 3)
        with pytest.raises(HypothesisViolated, match="no small multiplicative"):
            _b_torsion_units(A)

    def test_free_part_that_is_not_a_power_basis_raises(self):
        # Z[C_2 x C_2] on u a b ab: a is the second basis vector, but a^2 is
        # u, not b, so the free part is no power basis of one generator
        text = """\
kind = tn
conductor = 1
free_basis = u a b ab
mult u u = u
mult u a = a
mult u b = b
mult u ab = ab
mult a a = u
mult a b = ab
mult a ab = b
mult b b = u
mult b ab = a
mult ab ab = u
"""
        A = TnModel.from_presentation(text)
        with pytest.raises(InvalidRing, match="not a power basis"):
            _b_torsion_units(A)


class TestSweepSize:
    """Production sweeps A*_tors only at the primes that B*_tors and
    1 + N_tors share, one Sylow subgroup at a time."""

    @pytest.mark.parametrize("model", [
        lambda: build_construction_model(2, G(27, 27)),
        lambda: load_example("paper-7-1")], ids=["k2-27-27", "paper-7-1"])
    def test_no_set_above_the_shared_prime_bound(self, model, monkeypatch):
        import fuchs.tnlab as tnlab
        A = model()
        tnlab._torsion_unit_data.cache_clear()
        sizes = []
        inner = tnlab.abelian_structure
        monkeypatch.setattr(tnlab, "abelian_structure", lambda elements, *rest:
                            sizes.append(len(elements)) or inner(elements, *rest))
        torsion_units(A)
        b_tors = quotient_torsion_units(A)
        n_tors = adjoint_of_nil_torsion(A)
        shared = [b_tors.sylow(p).order() * n_tors.sylow(p).order()
                  for p in b_tors.primes() if p in n_tors.primes()]
        # B*_tors itself, then one Sylow subgroup per shared prime
        assert sizes == [b_tors.order()] + shared


def _models_with_torsion():
    """The shipped examples and construction models of one to three primes."""
    models = [load_example(name) for name in EXAMPLE_NAMES]
    return models + [build_construction_model(k, G(*H)) for k, H in
                     [(2, [27]), (4, [9, 9]), (8, [13, 13]), (2, [3, 5, 7])]]


def _peeled_component(A, p):
    """The p-part of N_tors as the ``RadicalRing`` that
    ``radical_ring_from_mult`` peels from its enumerated elements."""
    idx = [j for j, o in enumerate(A.tors_orders) if o % p == 0]
    elems = []
    for coords in iproduct(*(range(A.tors_orders[j]) for j in idx)):
        full = [0] * A.ntors()
        for j, c in zip(idx, coords):
            full[j] = c
        elems.append(tuple(full))
    return radical_ring_from_mult(
        elems, lambda u, v: tuple((a + b) % n for a, b, n in
                                  zip(u, v, A.tors_orders)),
        (0,) * A.ntors(),
        lambda u, v: A.mul(A.from_torsion(u), A.from_torsion(v))[1], p)


class TestTorsionIdeal:
    def test_components_match_the_peeled_rings(self):
        for A in _models_with_torsion():
            comps = nil_torsion(A).components
            assert comps and all(len(set(factorize(c.order()).primes())) == 1
                                 for c in comps), A.name
            for c in comps:
                peeled = _peeled_component(A, c.p)
                assert c.additive_group() == peeled.additive_group(), A.name
                assert c.adjoint_group() == peeled.adjoint_group(), A.name
                assert c.order() == peeled.order(), A.name
        assert len(comps) == 3  # the last model has primes 3, 5 and 7

    def test_order_that_is_not_a_prime_power_raises(self):
        base = CycloBase(1)
        with pytest.raises(InvalidRing, match="prime powers"):
            TnModel(1, ("u",), ("y",), (6,), ((1,),),
                    (((base.one(),), (0,)), ((base.zero(),), (1,)),
                     ((base.zero(),), (0,))))

    def test_product_outside_its_prime_raises(self):
        # a copy: the model itself is a key of the module's caches
        A = copy.copy(build_construction_model(2, G(3, 5, 7)))
        f, t = A.nfree(), A.ntors()
        # put a 5-part coordinate into the square of the order-3 symbol
        three = f + A.tors_orders.index(3)
        five = A.tors_orders.index(5)
        q = pairs(f + t).index((three, three))
        bad = list(A.mult)
        free, tors = bad[q]
        bad[q] = (free, tuple(1 if m == five else v for m, v in enumerate(tors)))
        object.__setattr__(A, "mult", tuple(bad))
        with pytest.raises(InvalidRing, match="leaves the 3-part"):
            nil_torsion(A)


def rank_bookkeeping(B_tors: FinAbGroup, laurent_vars: int) -> int:
    """Unit rank after adjoining laurent_vars invertible free variables to a
    torsion-free ring with torsion units B_tors: g(B_tors) + r."""
    if laurent_vars < 0:
        raise ValueError("rank increment must be nonnegative")
    return g_value(B_tors) + laurent_vars


class TestRankBookkeeping:
    def test_examples(self):
        assert rank_bookkeeping(G(8), 0) == 1
        assert rank_bookkeeping(G(8, 41), 0) == 79
        assert rank_bookkeeping(G(2), 3) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rank_bookkeeping(G(2), -1)


class TestQuotientViaRelations:
    def test_lattice_route_matches_direct_group(self):
        # the relation-lattice route used inside cyclotomic_quotient_group
        # agrees with an independent hand computation for Z[i]/(3)
        rows = [[3, 0], [0, 3]]
        got = group_from_relations(rows, 2)
        assert got.free_rank == 0 and got.torsion == G(3, 3)
