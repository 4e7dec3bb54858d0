"""Field arithmetic in Q(w) and Q(zeta9), and the canonical text form."""

import operator
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinchar.cyclo import (Cyc, CycError, OMEGA, OMEGA2, ZERO, ONE, _icbrt, _rational_roots,
                            cyc_cbrt, cyc_str, parse_cyc, root_exponent, root_of_unity)
from spinchar.cyclo9 import (CONJ, MUL_W, PRODUCT, Cyc9, cyc9_cbrt, from_lattice,
                             lattice_einsum, lattice_equal, lattice_matmul, parse_scalar,
                             scalar_str, to_lattice, zeta9)
from spinchar.linalg import CycMatrix


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
cycs = st.builds(Cyc, fractions, fractions)


def test_minimal_polynomial():
    w = OMEGA
    assert w * w == Cyc(-1, -1)
    assert w ** 3 == 1
    assert w * w + w + 1 == 0


def test_division_examples():
    assert ONE / OMEGA == Cyc(-1, -1)
    with pytest.raises(CycError):
        ONE / ZERO


def test_alpha_identity():
    # alpha = -(w - w^2)/3 satisfies 3 alpha^3 (1 + 2 w^-1) = 1
    alpha = -(OMEGA - OMEGA ** 2) / 3
    assert alpha == Cyc(Fraction(-1, 3), Fraction(-2, 3))
    assert 3 * alpha ** 3 * (1 + 2 * OMEGA ** -1) == 1


def test_conjugation():
    assert OMEGA.conj() == Cyc(-1, -1)
    assert Cyc(Fraction(5, 3)).conj() == Cyc(Fraction(5, 3))
    assert Cyc(1, 2).conj() == Cyc(-1, -2)
    assert OMEGA.conj().conj() == OMEGA


def test_roots_of_unity():
    assert root_of_unity(0) == 1
    assert root_of_unity(2) == Cyc(-1, -1)
    assert root_of_unity(5) == Cyc(-1, -1)
    assert root_of_unity(-1) == root_of_unity(2)
    for k in range(3):
        assert root_exponent(root_of_unity(k)) == k
        # Q(w) values held in the larger field
        assert root_exponent(Cyc9.from_scalar(root_of_unity(k))) == k
        assert root_exponent(zeta9(3 * k)) == k
    assert root_exponent(Cyc(2)) is None
    assert root_exponent(zeta9()) is None
    assert root_exponent(Cyc9.from_scalar(-OMEGA)) is None


def test_hash_agrees_with_equality():
    groups = [
        [2, Fraction(2), Cyc(2), Cyc9.from_scalar(2)],
        [Fraction(-5, 3), Cyc(Fraction(-5, 3)), Cyc9([Fraction(-5, 3)])],
        [0, ZERO, Cyc9()],
        [OMEGA, Cyc9.from_scalar(OMEGA), zeta9(3)],
        [OMEGA2, Cyc(-1, -1), Cyc9.from_scalar(OMEGA2), zeta9(6)],
        [Cyc(Fraction(1, 3), 2), Cyc9([Fraction(1, 3), 0, 0, 2])],
    ]
    for values in groups:
        assert all(v == values[0] for v in values)
        assert len({hash(v) for v in values}) == 1
        assert len(set(values)) == 1
    assert len({Cyc(2), Cyc9.from_scalar(2), 2}) == 1
    assert len({v for values in groups for v in values}) == len(groups)
    # values outside Q(w) still hash by their coefficients
    assert len({zeta9(), zeta9(), Cyc9([0, 1])}) == 1


def test_field_laws_on_random_triples():
    rng = random.Random(20240)
    def rand():
        return Cyc(Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                   Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
    for _ in range(1000):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert (x * y).conj() == x.conj() * y.conj()
        n = x.norm()
        assert n >= 0 and (n == 0) == x.is_zero()


@given(cycs)
def test_parse_round_trip(z):
    assert parse_cyc(cyc_str(z)) == z


@given(cycs, cycs)
def test_conj_multiplicative(x, y):
    assert (x * y).conj() == x.conj() * y.conj()


cyc9s = st.one_of(st.builds(Cyc9, st.lists(fractions, min_size=6, max_size=6)),
                  cycs.map(Cyc9.from_scalar))  # Q(w) values held as Cyc9


@given(cycs, cyc9s)
def test_mixed_arithmetic_matches_cyc9_reference(x, y):
    X = Cyc9.from_scalar(x)
    for op in (operator.add, operator.sub, operator.mul):
        assert op(x, y) == op(X, y)
        assert op(y, x) == op(y, X)
    if not y.is_zero():
        assert x / y == X / y
    if not x.is_zero():
        assert y / x == y / X
    assert (x == y) == (X == y) and (y == x) == (y == X)
    assert x == X and hash(x) == hash(X)
    if x == y:
        assert hash(x) == hash(y)


@given(cyc9s)
def test_scalar_round_trip(x):
    assert parse_scalar(scalar_str(x)) == x


@given(st.one_of(st.text(), st.text(alphabet="0123456789/+-*^wz ")))
def test_arbitrary_text_raises_only_cyc_error(text):
    try:
        parse_scalar(text)
    except CycError:
        pass


def test_canonical_strings():
    assert cyc_str(ZERO) == "0"
    assert cyc_str(ONE) == "1"
    assert cyc_str(OMEGA) == "w"
    assert cyc_str(Cyc(-1, -1)) == "-1-1*w"
    assert cyc_str(Cyc(0, 3)) == "3*w"
    assert cyc_str(Cyc(Fraction(-1, 3), Fraction(-2, 3))) == "-1/3-2/3*w"
    with pytest.raises(CycError):
        parse_cyc("nonsense")


def test_cube_roots_in_base_field():
    c = 3 * (1 + 2 * OMEGA ** -1)
    t = cyc_cbrt(ONE / c)
    assert t is not None and t ** 3 == ONE / c
    assert cyc_cbrt(Cyc(8)) == 2
    assert cyc_cbrt(Cyc(2)) is None
    assert cyc_cbrt(OMEGA) is None  # needs a ninth root


def test_integer_cube_root_beyond_float_precision():
    n = 10 ** 20 + 7
    assert _icbrt(n ** 3) == n
    assert _icbrt(n ** 3 + 1) is None
    assert _icbrt(n ** 3 - 1) is None
    assert [_icbrt(k) for k in range(9)] == [0, 1, None, None, None, None, None, None, 2]


def test_rational_roots_of_depressed_cubics():
    # (T - r)(T - s)(T + r + s) = T^3 + c1 T + c0, every root pattern:
    # three distinct, double, triple at 0, roots on either side of a turning point
    for d in (1, 2, 3, 6):
        for a in range(-7, 8):
            for b in range(a, 8):
                r, s = Fraction(a, d), Fraction(b, d)
                t = -(r + s)
                c1, c0 = r * s + r * t + s * t, -r * s * t
                assert _rational_roots(c0, c1) == {r, s, t}
    n = 10 ** 20
    r, s, t = Fraction(n), Fraction(n + 1), Fraction(-(2 * n + 1))
    assert _rational_roots(-r * s * t, r * s + r * t + s * t) == {r, s, t}
    assert _rational_roots(Fraction(-2), Fraction(0)) == set()  # T^3 - 2
    assert _rational_roots(Fraction(1), Fraction(1)) == set()   # T^3 + T + 1


def test_cube_roots_of_large_radicands():
    # candidate divisors of the norm used to be listed by trial division,
    # which never finished on these
    v = Cyc((10 ** 20 + 7) ** 3)
    t = cyc_cbrt(v)
    assert t is not None and t ** 3 == v
    x = Cyc(Fraction(10 ** 15 + 3, 7 ** 5), Fraction(-(2 ** 40 + 1), 11))
    t = cyc_cbrt(x ** 3)
    assert t is not None and t ** 3 == x ** 3
    assert t in {x, x * OMEGA, x * OMEGA2}


def test_large_non_cubes_are_refused_quickly():
    start = time.perf_counter()
    n = 10 ** 20 + 7
    assert cyc_cbrt(Cyc(n ** 3) * OMEGA) is None  # cube norm, no root in Q(w)
    assert cyc_cbrt(Cyc(n ** 3 + 1)) is None
    assert cyc_cbrt(Cyc(n ** 3, 1)) is None
    assert time.perf_counter() - start < 1.0


class TestNinthField:
    def test_basic_relations(self):
        z = zeta9()
        assert z ** 9 == 1
        assert z ** 3 == Cyc9.from_scalar(OMEGA)
        assert z ** 6 + z ** 3 + 1 == 0
        assert z.conj() == z ** 8
        assert (z * z.conj()) == 1

    def test_inverse_and_division(self):
        rng = random.Random(7)
        for _ in range(150):
            a = Cyc9([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(6)])
            if a.is_zero():
                continue
            assert a * a.inverse() == 1
            b = Cyc9([rng.randint(-3, 3) for _ in range(6)])
            assert (b / a) * a == b

    def test_conj_automorphism(self):
        rng = random.Random(8)
        for _ in range(100):
            a = Cyc9([rng.randint(-3, 3) for _ in range(6)])
            b = Cyc9([rng.randint(-3, 3) for _ in range(6)])
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a

    def test_embedding_of_base_field(self):
        assert OMEGA * zeta9() == zeta9(4)
        assert (Cyc9.from_scalar(OMEGA) + 1).to_cyc() == OMEGA + 1
        assert zeta9().to_cyc() is None

    def test_ninth_root_cube_roots(self):
        # the scalar that normalizes the purely-spin intertwiners
        v = Cyc(3, -3)  # 3 - 3w
        t = cyc9_cbrt(v)
        assert t is not None and t ** 3 == Cyc9.from_scalar(v)
        expect = Cyc9.from_scalar(OMEGA ** 2 - OMEGA) * zeta9(2)
        roots = {expect, expect * Cyc9.from_scalar(OMEGA),
                 expect * Cyc9.from_scalar(OMEGA ** 2)}
        assert t in roots
        # a root inside Q(w) comes back as a Cyc
        assert cyc9_cbrt(Cyc(8)) == 2 and isinstance(cyc9_cbrt(Cyc(8)), Cyc)

    def test_scalar_strings(self):
        vals = [zeta9(), zeta9(2), -zeta9(),
                Cyc9([Fraction(1, 3), 0, Fraction(-2, 3), 1, 0, 5]),
                Cyc9.from_scalar(OMEGA), Cyc9.from_scalar(Fraction(5, 3))]
        for v in vals:
            assert Cyc9.from_scalar(parse_scalar(scalar_str(v))) == v
        # subfield values keep the plain w grammar
        assert scalar_str(Cyc9.from_scalar(OMEGA)) == "w"
        assert isinstance(parse_scalar("w"), Cyc)
        assert isinstance(parse_scalar("-1/3*z^2-2/3*z^5"), Cyc9)
        for bad in ("z^7", "z^0", "2*z^6", "1+z^9", "1/0", "1/0*w", "1/0*z"):
            with pytest.raises(CycError):
                parse_scalar(bad)


class TestLatticeKernel:
    """The int64 lattice tables against scalar Cyc9 arithmetic as reference."""

    def test_tables_match_scalar_arithmetic(self):
        rng = random.Random(9)
        for _ in range(100):
            a = Cyc9([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
            b = Cyc9.from_scalar(Cyc(Fraction(rng.randint(-5, 5), 3), rng.randint(-5, 5)))
            L, den = to_lattice([a, b])
            assert from_lattice(L[0], den) == a and from_lattice(L[1], den) == b
            prod = lattice_einsum("p,q,pqr->r", L[0], L[1], PRODUCT)
            assert from_lattice(prod, den * den) == a * b
            assert from_lattice(L[0] @ CONJ, den) == a.conj()
            assert from_lattice(L[0] @ MUL_W, den) == a * OMEGA

    def test_denominator_comes_from_the_data(self):
        L, den = to_lattice([[ONE, Cyc(Fraction(1, 6))], [zeta9(2), 4]])
        assert den == 6 and L.shape == (2, 2, 6) and L.dtype == np.int64
        assert to_lattice([1, OMEGA])[1] == 1
        assert from_lattice(L[0, 1], den) == Cyc(Fraction(1, 6))
        assert isinstance(from_lattice(L[0, 1], den), Cyc)
        assert isinstance(from_lattice(L[1, 0], den), Cyc9)

    def test_magnitudes_checked_before_int64_wraps(self):
        with pytest.raises(CycError):
            to_lattice([Cyc(2 ** 63)])
        small, _ = to_lattice([Cyc(2 ** 28)])
        assert from_lattice(lattice_einsum("ip,iq,pqr->r", small, small, PRODUCT)) == 2 ** 56
        big, _ = to_lattice([Cyc(2 ** 32)])  # its square wraps to 0 in int64
        with pytest.raises(CycError):
            lattice_einsum("ip,iq,pqr->r", big, big, PRODUCT)


# entries with denominators 1 and 3, held as either scalar type
thirds = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 3]))
lattice_entries = st.one_of(st.builds(Cyc, thirds, thirds),
                            st.builds(Cyc9, st.lists(thirds, min_size=6, max_size=6)))


def _matrices(n, count):
    square = st.lists(st.lists(lattice_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.lists(square.map(CycMatrix), min_size=count, max_size=count)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: _matrices(n, 4)))
def test_lattice_matmul_matches_matrix_products(mats):
    A, B, C, D = mats
    L, den = to_lattice([A.rows, B.rows, C.rows, D.rows])
    prod, prod_den = lattice_matmul(L[:2], den, L[2:], den)  # A*C and B*D in one call
    for k, want in enumerate((A * C, B * D)):
        assert CycMatrix.from_lattice(prod[k], prod_den) == want
    # the denominator is reduced to the least one the values need
    assert prod_den == to_lattice([(A * C).rows, (B * D).rows])[1]
    # a single matrix broadcasts against the batch
    prod, prod_den = lattice_matmul(L[0], den, L, den)
    assert all(CycMatrix.from_lattice(prod[k], prod_den) == A * M
               for k, M in enumerate(mats))
    assert lattice_equal(prod[:1], prod_den, prod[:1] * 3, prod_den * 3).all()


def test_lattice_matmul_reduces_growing_denominators():
    # U = alpha (I + w^-1 J + K) has denominator 3 and U^3 = I: unreduced,
    # the running product's coefficients would reach 3^60 and be refused
    alpha = -(OMEGA - OMEGA ** 2) / 3
    J = CycMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    U = (CycMatrix.identity(3) + J.scale(OMEGA ** -1) + J * J).scale(alpha)
    L, den = to_lattice(U.rows)
    assert den == 3
    acc, acc_den = L, den
    for k in range(2, 61):
        acc, acc_den = lattice_matmul(acc, acc_den, L, den)
        assert acc_den in (1, 3)
    assert acc_den == 1 and CycMatrix.from_lattice(acc, acc_den) == CycMatrix.identity(3)
    # a denominator that must grow does so past the int64 range, exactly
    third, _ = to_lattice([[Cyc(Fraction(1, 3))]])
    acc, acc_den = third, 3
    for _ in range(44):
        acc, acc_den = lattice_matmul(acc, acc_den, third, 3)
    assert acc_den == 3 ** 45 and from_lattice(acc[0, 0], acc_den) == Fraction(1, 3 ** 45)


def test_lattice_matmul_overflow_raises_instead_of_wrapping():
    big, _ = to_lattice([[Cyc(2 ** 32)]])  # its square wraps to 0 in int64
    with pytest.raises(CycError):
        lattice_matmul(big, 1, big, 1)
    small, _ = to_lattice([[Cyc(2 ** 26)]])
    prod, den = lattice_matmul(small, 1, small, 1)
    assert from_lattice(prod[0, 0], den) == 2 ** 52
    # rescaling onto a common denominator is bounded the same way
    with pytest.raises(CycError):
        lattice_equal(small, 1, small, 3 ** 40)
    with pytest.raises(CycError):
        lattice_matmul(small, 1, np.zeros((2, 1, 6), dtype=np.int64), 1)  # inner sizes differ

