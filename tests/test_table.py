"""The pair layout, the compiled product, transport and associator kernels
against their ``table_mul`` references, and where product kernels are
compiled."""

from __future__ import annotations

import gc
import random
import re
from pathlib import Path

import pytest

import fuchs.radical as rad
import fuchs.table as table
from fuchs.cli import main
from fuchs.finring import build_corpus, unitalization, zn_ring
from fuchs.radical import enumerate_radical_rings
from fuchs.table import (TableRing, associators, compile_product,
                         compile_transport, pair_entry, pair_table, pairs,
                         table_mul)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _radical_classes():
    out = []
    for p in PRIMES:
        k = 1
        while p ** k <= 27:
            out.extend(enumerate_radical_rings(p, k))
            k += 1
    return out


def _finite_rings():
    rings = build_corpus()
    for p, k in ((3, 3), (5, 2)):
        N = enumerate_radical_rings(p, k)[-1]
        rings.append(unitalization(N, max(N.exponents) + 1))
    return rings


def _pairs(ring, rng):
    """Every pair of basis vectors, then 200 random pairs of elements."""
    basis = ring.basis()
    orders = ring._orders
    yield from ((x, y) for x in basis for y in basis)
    for _ in range(200):
        yield (tuple(rng.randrange(n) for n in orders),
               tuple(rng.randrange(n) for n in orders))


class TestPairLayout:
    @pytest.mark.parametrize("r", range(7))
    def test_helpers_agree_with_table_mul(self, r):
        def product(i, j):  # a different vector for every pair
            return tuple((10 * i + j + m) % 97 for m in range(r))

        assert len(pairs(r)) == r * (r + 1) // 2
        mult = pair_table(r, product)
        orders = (97,) * r
        basis = [tuple(int(m == i) for m in range(r)) for i in range(r)]
        for i in range(r):
            for j in range(r):
                expected = product(min(i, j), max(i, j))
                assert pair_entry(mult, r, i, j) == expected
                assert table_mul(orders, mult, basis[i], basis[j]) == expected

    def test_only_table_spells_out_the_layout(self):
        # the loops and index arithmetic of the pair layout, as other
        # modules wrote them before they went through ``pairs``
        layout = re.compile(
            r"range\((i|j|a|p), |\((i|lo) - 1\) // 2|\+ 1\) // 2|names\[i:\]")
        src = Path(table.__file__).parent
        hits = [f"{path.name}:{n}: {line.strip()}"
                for path in sorted(src.glob("*.py")) if path.name != "table.py"
                for n, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1)
                if layout.search(line)]
        assert hits == []
        # ``table`` is the lowest layer: documents go through it, not back
        own = (src / "table.py").read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import)\b.*presentation", own, re.M)

    def test_only_presentation_raises_presentation_error(self):
        # the text formats, their names and their missing rows live in
        # ``presentation``; the modules that build on them get tuples
        src = Path(table.__file__).parent
        hits = [f"{path.name}:{n}: {line.strip()}"
                for path in sorted(src.glob("*.py"))
                if path.name != "presentation.py"
                for n, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1)
                if re.search(r"raise\b.*PresentationError", line)]
        assert hits == []


class TestKernelMatchesTableMul:
    def test_radical_classes(self):
        rng = random.Random(9)
        rings = _radical_classes()
        assert len(rings) > 100
        for N in rings:
            orders = N.orders()
            for x, y in _pairs(N, rng):
                xy = table_mul(orders, N.mult, x, y)
                assert N.mul(x, y) == xy, (N, x, y)
                assert N.circle(x, y) == N.add(N.add(x, y), xy), (N, x, y)

    def test_corpus_and_unitalizations(self):
        rng = random.Random(10)
        for A in _finite_rings():
            for x, y in _pairs(A, rng):
                assert A.mul(x, y) == table_mul(A.basis_orders, A.mult, x, y), (A, x, y)

    def test_rank_zero(self):
        assert compile_product((), ())((), ()) == ()
        assert compile_product((), (), circle=True)((), ()) == ()

    def test_unreduced_coordinates_and_nesting(self):
        # Z[i] with basis 1, i: the free coordinates stay unreduced
        mul = compile_product(((1, 0), (0, 1), (-1, 0)), (None, None), shape=(2,))
        assert mul(((3, 4),), ((3, -4),)) == ((25, 0),)


def _flat(element):
    if isinstance(element, tuple):
        return [v for part in element for v in _flat(part)]
    return [element]


def _nested(shape, values):
    """``values`` (an iterator) as an element of ``shape``."""
    if isinstance(shape, tuple):
        return tuple(_nested(s, values) for s in shape)
    return tuple(next(values) for _ in range(shape))


class TestKernelsShareAShape:
    """Seeded raw tables in groups of one shape each (the same nonzero
    constants, the same constants 1, the same unreduced coordinates) that
    differ in their other constants and in their moduli."""

    UNREDUCED = 10 ** 30  # above every unreduced coordinate below

    @staticmethod
    def _group(rng, unreduced, members=5):
        """(mult, moduli) of ``members`` tables of one shape."""
        r = len(unreduced)
        # per constant: 0, 1 or another value drawn for each member
        kinds = [[rng.choice((0, 0, 1, 2)) for _ in range(r)] for _ in pairs(r)]
        for _ in range(members):
            moduli = tuple(None if free else rng.choice((2, 4, 5, 9, 27, 49))
                           for free in unreduced)
            mult = tuple(tuple(k if k < 2 else rng.randrange(2, 60) for k in row)
                         for row in kinds)
            yield mult, moduli

    def _check(self, kernel, mult, moduli, shape, circle, rng):
        orders = [self.UNREDUCED if n is None else n for n in moduli]
        for _ in range(30):
            x, y = ([rng.randrange(n if n else 50) for n in moduli] for _ in range(2))
            xy = list(table_mul(orders, mult, x, y))
            if circle:
                xy = [(a + b + c) % n for a, b, c, n in zip(x, y, xy, orders)]
            got = kernel(_nested(shape, iter(x)), _nested(shape, iter(y)))
            assert _flat(got) == xy, (mult, moduli, x, y)

    @pytest.mark.parametrize("shape, unreduced, circle", [
        *((None, (False,) * r, circle) for r in range(1, 5) for circle in (False, True)),
        # as TN models use it: two free symbols over Z[i], then torsion
        (((2, 2), 2), (True,) * 4 + (False,) * 2, False),
    ])
    def test_each_kernel_keeps_its_constants(self, monkeypatch, shape, unreduced, circle):
        compiles = []
        inner = table._define

        def counting(*args):
            compiles.append(args)
            return inner(*args)

        monkeypatch.setattr(table, "_define", counting)
        rng = random.Random(len(unreduced) + 10 * circle)
        for _ in range(8):
            table._product_factory.cache_clear()
            compiles.clear()
            group = list(self._group(rng, unreduced))
            kernels = [compile_product(mult, moduli, shape, circle)
                       for mult, moduli in group]
            # the first table compiles the shape, the others only bind values
            assert len(compiles) == 1
            for (mult, moduli), kernel in zip(group, kernels):
                self._check(kernel, mult, moduli, shape or len(moduli), circle, rng)


class TestKernelInputs:
    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_non_integer_constant_raises(self, bad):
        with pytest.raises(TypeError):
            compile_product(((bad,),), (4,))

    @pytest.mark.parametrize("bad", [4.0, "4"])
    def test_non_integer_modulus_raises(self, bad):
        with pytest.raises(TypeError):
            compile_product(((1,),), (bad,))

    def test_wrong_table_size_raises(self):
        with pytest.raises(ValueError):
            compile_product(((1,), (0,)), (4,))
        with pytest.raises(ValueError):
            compile_product(((1, 0),), (4,))
        with pytest.raises(ValueError):
            compile_product(((1,),), (4,), shape=(1, 1))

    def test_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            kernel = compile_product(((1, 0), (0, 1), (0, 0)), (4, 4), circle=True)
            assert kernel((1, 1), (1, 1)) == (3, 0)
            del kernel
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_kernel_is_not_a_field(self):
        A = zn_ring(12)
        assert A.mul((5,), (7,)) == (11,)
        fresh = zn_ring(12)
        assert A == fresh and hash(A) == hash(fresh)


def _reference_associators(orders, mult):
    """The associators of ``table.associators``, two ``table_mul`` calls a
    triple."""
    r = len(orders)
    basis = [tuple(int(m == i) for m in range(r)) for i in range(r)]

    def constant(i, j):
        lo = min(i, j)
        return mult[lo * r - lo * (lo - 1) // 2 + abs(i - j)]

    for a in range(r):
        for b in range(r):
            ab = constant(a, b)
            for c in range(a + 1, r):
                left = table_mul(orders, mult, ab, basis[c])
                right = table_mul(orders, mult, basis[a], constant(b, c))
                yield (a, b, c), tuple((u - v) % n for u, v, n in zip(left, right, orders))


class TestAssociatorKernel:
    def test_matches_table_mul_on_random_raw_tables(self):
        rng = random.Random(13)
        for r in range(6):
            for _ in range(40):
                orders = tuple(rng.choice((2, 3, 4, 5, 8, 9, 12, 27)) for _ in range(r))
                mult = tuple(tuple(rng.randrange(n) for n in orders)
                             for _ in range(r * (r + 1) // 2))
                assert list(associators(orders, mult)) == \
                    list(_reference_associators(orders, mult)), (orders, mult)

    @pytest.mark.parametrize("bad", [4.0, "4"])
    def test_non_integer_order_raises(self, bad):
        with pytest.raises(TypeError):
            associators((bad, 2), ((0, 0),) * 3)


class TestTransportInputs:
    SWAP = ((0, 1), (1, 0))

    @pytest.mark.parametrize("orders, images", [
        ((2.0, 2), SWAP), (("2", 2), SWAP), ((2, 2), ((0, 1), (1.0, 0))),
        ((2, 2), ((0, 1), (None, 0))),
    ])
    def test_non_integer_input_raises(self, orders, images):
        with pytest.raises(TypeError):
            compile_transport(orders, images, self.SWAP)
        with pytest.raises(TypeError):
            compile_transport(orders, self.SWAP, images)

    def test_non_homomorphic_map_raises(self):
        # x_2 has order 2, so it cannot map to x_1 + x_2 in Z/4 x Z/2
        identity = ((1, 0), (0, 1))
        with pytest.raises(ValueError, match="inverse"):
            compile_transport((4, 2), identity, ((1, 0), (1, 1)))
        with pytest.raises(ValueError, match="images"):
            compile_transport((4, 2), ((1, 0), (1, 1)), identity)

    def test_wrong_size_raises(self):
        with pytest.raises(ValueError):
            compile_transport((2, 2), ((1, 0),), ((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            compile_transport((2, 2), ((1, 0), (0, 1)), ((1, 0), (0, 1, 0)))

    def test_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            transport = compile_transport((3, 3), ((2, 0), (0, 1)), ((2, 0), (0, 1)))
            assert transport(((1, 1), (0, 0), (0, 0))) == ((2, 1), (0, 0), (0, 0))
            del transport
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWhereKernelsCompile:
    @pytest.fixture
    def compiled(self, monkeypatch):
        """Every kernel compiled, as (ring type, circle) pairs; a compile that
        does not come through ``TableRing._kernel`` fails the test."""
        kinds, total = [], []
        inner_kernel, inner_compile = TableRing._kernel, table.compile_product

        def kernel(ring, circle):
            kinds.append((type(ring).__name__, circle))
            return inner_kernel(ring, circle)

        def compile_(*args, **kwargs):
            total.append(1)
            return inner_compile(*args, **kwargs)

        monkeypatch.setattr(TableRing, "_kernel", kernel)
        monkeypatch.setattr(table, "compile_product", compile_)
        yield kinds
        assert len(total) == len(kinds)

    def test_validation_compiles_no_kernel(self, compiled):
        # enumerating validates hundreds of tables, building the corpus
        # validates every unital ring in it
        assert len(rad._enumerate_cached.__wrapped__(5, 3)) > 0
        assert len(build_corpus()) > 40
        assert compiled == []

    @pytest.mark.parametrize("ring, expected", [
        # local: only the ring's product; 1 + m is recovered inside A*
        (zn_ring(9), [("FinCommRing", False)]),
        # not local: only the idempotent scan multiplies
        (zn_ring(6), [("FinCommRing", False)]),
    ], ids=["Z9", "Z6"])
    def test_finring_file_compiles_one_per_ring(self, compiled, capsys,
                                                tmp_path, ring, expected):
        path = tmp_path / "a.ring"
        path.write_text(ring.to_presentation(), encoding="utf-8")
        assert main(["oracle", "finring", str(path)]) == 0
        capsys.readouterr()
        assert compiled == expected
