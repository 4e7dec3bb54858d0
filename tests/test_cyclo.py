"""Field arithmetic in Q(w) and Q(zeta9), and the canonical text form."""

import math
import operator
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spinchar.cyclo import (Cyc, CycError, OMEGA, OMEGA2, ZERO, ONE, _icbrt, _monotone_root,
                            as_cyc, cyc_cbrt, root_exponent, root_of_unity)
from spinchar.cyclo9 import (Cyc9, Packing, cyc9_cbrt, matrix_state, pack_table, packing_bits,
                             parse_scalar, scalar_str, state_mul, state_mul_trace, state_times_w,
                             state_trace, zeta9)
from spinchar.groups import get_group
from spinchar.linalg import CycMatrix
from spinchar.spinrep import CharTable, g27_nonspin_catalog


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
HASH_M = sys.hash_info.modulus
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
        n = x * x.conj()  # the norm: a nonnegative rational, zero iff x is
        assert n.q == 0 and n.p >= 0 and (n == 0) == x.is_zero()


@given(cycs)
def test_parse_round_trip(z):
    assert parse_scalar(scalar_str(z)) == z


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


@given(st.one_of(cycs, cyc9s))
def test_scalar_round_trip(x):
    assert parse_scalar(scalar_str(x)) == x


def _assert_canonical(x):
    """The stored ints are reduced: d > 0 and gcd(numerators, d) = 1."""
    nums = (x.p, x.q) if isinstance(x, Cyc) else x.n
    assert all(type(v) is int for v in nums + (x.d,))
    assert x.d > 0 and math.gcd(*nums, x.d) == 1
    if not any(nums):
        assert x.d == 1


scalars = st.one_of(st.integers(-20, 20), fractions, cycs, cyc9s)


@given(scalars, scalars)
def test_results_keep_the_canonical_state(x, y):
    results = [x + y, x - y, x * y, -x if isinstance(x, (Cyc, Cyc9)) else Cyc(-x)]
    if y != 0:
        results.append(x / y)
    for v in results:
        if isinstance(v, (Cyc, Cyc9)):
            _assert_canonical(v)
            assert v.conj().conj() == v
            _assert_canonical(v.conj())
    for v in (x, y):
        if isinstance(v, (Cyc, Cyc9)):
            _assert_canonical(v)
            zero = v - v
            _assert_canonical(zero)
            assert zero == 0 and hash(zero) == hash(0)


# denominators that the hash modulus M divides, where a Fraction hashes as inf
# (1/2 + 1/M w has the state (M + 2w) / 2M, whose p/d is not in lowest terms)
@example(Fraction(1, HASH_M), Fraction(0))
@example(Fraction(-3, 2 * HASH_M), Fraction(1, 2))
@example(Fraction(1, 2), Fraction(1, HASH_M))
@example(Fraction(7, HASH_M ** 2), Fraction(-1, HASH_M))
@given(fractions, fractions)
def test_equal_values_in_every_type_compare_and_hash_equal(a, b):
    z = Cyc(a, b)
    forms = [z, Cyc9.from_scalar(z), Cyc9([a, 0, 0, b]), Cyc9([a - b, 0, 0, 0, 0, 0, -b])]  # b z^6 = -b - b z^3
    if b == 0:
        forms += [a, Cyc(a), Cyc9([a])] + ([int(a)] if a.denominator == 1 else [])
    for u in forms:
        assert all(u == v and v == u for v in forms)
        assert len({hash(v) for v in forms}) == 1
    # the state reads back the coordinates, and each value hashes as the
    # equal Fraction, or as the tuple of its Fraction coefficients
    assert (Fraction(z.p, z.d), Fraction(z.q, z.d)) == (a, b)
    assert hash(z) == (hash((a, b)) if b else hash(a))
    u = Cyc9([a, b])  # a + b zeta9, outside Q(w) when b != 0
    assert hash(u) == (hash((a, b, 0, 0, 0, 0)) if b else hash(a))


def test_values_reducing_to_zero_are_zero():
    half = Fraction(1, 2)
    zero = Cyc9([half, 0, 0, half, 0, 0, half])  # (1 + z^3 + z^6) / 2
    assert zero == 0 and zero == ZERO and hash(zero) == hash(0) == hash(ZERO)
    assert (zero.n, zero.d) == ((0,) * 6, 1) and zero.is_zero()
    third = Cyc(Fraction(1, 3), Fraction(2, 3))
    assert (third - third).d == 1 and (zeta9() - zeta9()).d == 1
    assert (Cyc(Fraction(2, 6), Fraction(4, 6)).p, third.q, third.d) == (1, 2, 3)


def test_coefficients_of_any_degree_reduce():
    # z^9 = 1, so a coefficient list of any length names one value
    assert Cyc9([0] * 11 + [1]) == zeta9(2) and Cyc9([0] * 18 + [Fraction(1, 2)]) == Fraction(1, 2)
    coeffs = [Fraction(k - 7, 1 + k % 4) for k in range(25)]
    assert Cyc9(coeffs) == sum((c * zeta9(k) for k, c in enumerate(coeffs)), ZERO)


def test_scalar_arithmetic_builds_no_fraction(monkeypatch):
    """+, -, *, /, conj, the packing and the matrix kernel run on the int
    state."""
    x, y = Cyc(Fraction(1, 3), -2), Cyc(Fraction(-5, 6), Fraction(7, 4))
    u, v = Cyc9([Fraction(1, 3), 0, Fraction(-2, 3), 1, 0, 5]), zeta9(2) + Fraction(1, 5)
    r = Fraction(2, 7)
    operands = [x, y, u, v, 3, r]
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for s in operands:
        for t in operands:
            if isinstance(s, (Cyc, Cyc9)) or isinstance(t, (Cyc, Cyc9)):
                s + t, s - t, s * t, s == t
                if t != 0:
                    s / t
    x.conj(), u.conj(), -x, -u, u.inverse(), x ** -2, u ** 3
    packing, packed, conj = pack_table([[x, u], [3, r]], 1, 1)
    [packing.unpack(a * b) for row in packed for a in row for b in conj[0]]
    state = matrix_state([[x, u], [3, r]])
    CycMatrix.from_state(state_times_w(state_mul(state, state)))
    state_trace(state)
    assert made == []


def test_power_makes_popcount_plus_bit_length_minus_two_products(monkeypatch):
    x, u = Cyc(Fraction(1, 3), -2), zeta9(2) + Fraction(1, 5)
    X = CycMatrix([[x, 1, 0], [0, u, OMEGA], [2, 0, Fraction(-1, 2)]])
    for base, one in [(x, ONE), (u, Cyc9.from_scalar(1)), (X, CycMatrix.identity(3))]:
        want = one
        for k in range(21):
            assert base ** k == want, (base, k)
            want = want * base
    calls = []
    real_mul = CycMatrix.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(CycMatrix, "__mul__", counting_mul)
    assert X ** 3 == real_mul(real_mul(X, X), X)
    assert len(calls) == 2
    for k in (1, 2, 5, 8, 20):
        calls.clear()
        X ** k
        assert len(calls) == bin(k).count("1") + k.bit_length() - 2


@given(st.one_of(st.text(), st.text(alphabet="0123456789/+-*^wz ")))
def test_arbitrary_text_raises_only_cyc_error(text):
    try:
        parse_scalar(text)
    except CycError:
        pass


@pytest.mark.parametrize("make", [lambda: Cyc(0.1), lambda: Cyc("1/3"), lambda: Cyc9(["x"]),
                                  lambda: Cyc9([0.5]), lambda: parse_scalar(3),
                                  lambda: parse_scalar(None), lambda: Cyc9.from_scalar("x"),
                                  lambda: CycMatrix([[0.5]]), lambda: Cyc9([1]) + 0.5,
                                  lambda: as_cyc(0.5), lambda: cyc_cbrt(0.5),
                                  lambda: cyc9_cbrt(0.5), lambda: Cyc9(3),
                                  lambda: scalar_str(0.5), lambda: scalar_str(None),
                                  lambda: CycMatrix.identity(2).scale("x")],
                         ids=["Cyc(0.1)", "Cyc('1/3')", "Cyc9(['x'])", "Cyc9([0.5])",
                              "parse_scalar(3)", "parse_scalar(None)", "Cyc9.from_scalar('x')",
                              "CycMatrix([[0.5]])", "Cyc9([1])+0.5", "as_cyc(0.5)",
                              "cyc_cbrt(0.5)", "cyc9_cbrt(0.5)", "Cyc9(3)", "scalar_str(0.5)",
                              "scalar_str(None)", "CycMatrix.scale('x')"])
def test_inexact_or_non_text_input_raises_only_cyc_error(make):
    # only ints, rationals and the fields' own values are coerced, and only
    # text is parsed: a float is never stored as its binary fraction
    with pytest.raises(CycError):
        make()


def test_canonical_strings():
    assert scalar_str(ZERO) == "0"
    assert scalar_str(ONE) == "1"
    assert scalar_str(OMEGA) == "w"
    assert scalar_str(Cyc(-1, -1)) == "-1-1*w"
    assert scalar_str(Cyc(0, 3)) == "3*w"
    assert scalar_str(Cyc(Fraction(-1, 3), Fraction(-2, 3))) == "-1/3-2/3*w"
    # ints and rationals print as the constructors read them
    assert [scalar_str(3), scalar_str(Fraction(-5, 3))] == ["3", "-5/3"]
    with pytest.raises(CycError):
        parse_scalar("nonsense")


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


# The cube-root search as it was on Fraction values, kept as a reference for
# the integral search.  Its candidate traces came out of a set, in the
# order of their hashes (which made 6w the cube root of 216); the reference
# tries them largest first, the order cyc_cbrt now fixes.

def _ref_frac_cbrt(f):
    num = _icbrt(abs(f.numerator))
    den = _icbrt(f.denominator)
    return None if num is None or den is None else Fraction(num if f > 0 else -num, den)


def _ref_frac_sqrt(f):
    if f < 0:
        return None
    num = math.isqrt(f.numerator)
    den = math.isqrt(f.denominator)
    if num * num != f.numerator or den * den != f.denominator:
        return None
    return Fraction(num, den)


def _ref_rational_roots(c0, c1):
    m = math.lcm(c0.denominator, c1.denominator)
    p, q = int(c1 * m * m), int(c0 * m ** 3)
    bound = 1 + max(abs(p), abs(q))
    if p >= 0:
        pieces = [(-bound, bound)]
    else:
        r = math.isqrt(-p // 3)
        pieces = [(-bound, -r - 1), (-r, r), (r + 1, bound)]
    roots = set()
    for lo, hi in pieces:
        s = _monotone_root(lambda x: x ** 3 + p * x + q, lo, hi)
        if s is not None:
            roots.add(Fraction(s, m))
    return roots


def _ref_cyc_cbrt(v, order=lambda roots: sorted(roots, reverse=True)):
    v = as_cyc(v)
    if v.is_zero():
        return ZERO
    a, b = Fraction(v.p, v.d), Fraction(v.q, v.d)
    s = _ref_frac_cbrt(a * a - a * b + b * b)  # the norm
    if s is None:
        return None
    trace_v = 2 * a - b
    for tau in order(_ref_rational_roots(-trace_v, -3 * s)):
        r = _ref_frac_sqrt(3 * (4 * s - tau * tau))
        if r is None:
            continue
        for sign in (1, -1):
            x = (3 * tau + sign * r) / 6
            t = Cyc(x, 2 * x - tau)
            if t * t * t == v:
                return t
    return None


def test_cube_roots_match_the_fraction_reference():
    # cubes of small (p + q w)/d, their w-twists and negatives (a double
    # trace at sqrt(norm) when x is rational), and non-cubes; the catalog's
    # radicands have denominator 9
    checked = 0
    for d in (1, 2, 3, 6, 7, 9, 27):
        for p in range(-6, 7):
            for q in range(-6, 7):
                x = Cyc(Fraction(p, d), Fraction(q, d))
                for v in (x ** 3, x ** 3 * OMEGA, x ** 3 * OMEGA2, -x ** 3, 3 * x ** 3, x, x + 1):
                    t = cyc_cbrt(v)
                    assert t == _ref_cyc_cbrt(v), v
                    if t is not None:
                        assert t ** 3 == v
                        # the hash order picked a root too, possibly another one
                        assert _ref_cyc_cbrt(v, order=list) in {t, t * OMEGA, t * OMEGA2}
                        checked += 1
    assert checked > 800
    for v, root in [(Cyc(8), 2), (Cyc(216), 6), (ONE, 1), (Cyc(Fraction(8, 27)), Fraction(2, 3))]:
        assert cyc_cbrt(v) == _ref_cyc_cbrt(v) == root
    for v in (Cyc(2), OMEGA, Cyc(4, 1)):
        assert cyc_cbrt(v) is None and _ref_cyc_cbrt(v) is None


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
        # digits are ASCII only: scalar_str never prints any other kind
        for bad in ("z^7", "z^0", "2*z^6", "1+z^9", "1/0", "1/0*w", "1/0*z",
                    "\u0662*w", "\uff12+w", "1/\u0663*z^\u0662"):
            with pytest.raises(CycError):
                parse_scalar(bad)


class TestPackedKernel:
    """Kronecker packing, and the kernel's multiple by w, against scalar
    Cyc9 arithmetic as reference."""

    def test_products_match_scalar_arithmetic(self):
        rng = random.Random(9)
        for _ in range(100):
            a = Cyc9([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
            b = Cyc9.from_scalar(Cyc(Fraction(rng.randint(-5, 5), 3), rng.randint(-5, 5)))
            packing, (values,), (conj,) = pack_table([[a, b]], 1, 0)
            assert packing.unpack(values[0] * conj[1]) == a * b.conj()
            assert packing.unpack(values[1] * conj[0]) == b * a.conj()
            assert state_times_w(matrix_state([[a]])) == matrix_state([[a * OMEGA]])

    def test_denominator_comes_from_the_data(self):
        values = [ONE, Cyc(Fraction(1, 6)), zeta9(2), 4]
        packing, (packed,), (conj,) = pack_table([values], 1, 1)
        assert packing.den == 6 and pack_table([[1, OMEGA]], 1, 1)[0].den == 1
        got = [packing.unpack(v * conj[0]) for v in packed]  # v * conj(1)
        assert got == values
        assert isinstance(got[1], Cyc) and isinstance(got[2], Cyc9)

    def test_numerators_near_2_70_give_exact_sums(self):
        # Python ints cannot wrap: the G27 table scaled by c = 2^70 + 1 + zeta9
        # has Gram matrix |c|^2 I and column sums |c|^2 |centralizer|
        g27 = get_group("G27")
        classes = [(rep, len(members)) for rep, members in g27.conjugacy_classes()]
        c = Cyc9([2 ** 70 + 1, 1])
        rows = [(rep.name, rep.spin_type, rep.dim,
                 [c * value for value in rep.character()])
                for rep in g27_nonspin_catalog()]
        table = CharTable(g27, classes, rows)
        norm = c * c.conj()
        assert norm.n[0] > 2 ** 140
        gram = table.gram_matrix()
        assert gram == [[norm if i == j else 0 for j in range(11)] for i in range(11)]
        assert table.column_orthogonality_violation() == (0, 0, 27 * norm)
        plain = table._replace(rows=[(name, spin, dim, [v / c for v in values])
                                     for name, spin, dim, values in rows])
        assert plain.column_orthogonality_violation() is None


def test_packing_bits_is_the_least_width_that_decodes():
    # 2^(B - 1) > bound is the condition of Packing, which B - 1 would break
    for bound in [0, 1, 2, 3, 7, 8, 2 ** 40 - 1, 2 ** 40, 18 * 9 * 18 * 243]:
        bits = packing_bits(bound)
        assert 2 ** (bits - 1) > bound and (bound >= 2 ** (bits - 2) or bound == 0)
    # pack_table takes the larger of the sum bound and the target bound
    values = [Cyc9([3, -2, 0, 1, 0, -1]), Fraction(1, 2), zeta9(5)]
    packing, _, _ = pack_table([values], 7, 5)
    m = max(abs(a) for x in values for a in Cyc9.from_scalar(x * 2).n)
    mc = max(abs(a) for x in values for a in Cyc9.from_scalar(x * 2).conj().n)
    assert (packing.den, packing.bits) == (2, packing_bits(max(18 * m * mc * 7, 5 * 4)))
    assert pack_table([[Fraction(1, 7)]], 1, 1)[0].bits == packing_bits(49)  # target wins
    # digits at the edge 2^(B-1) - 1 read back at width B and are misread at B - 1
    bits = packing_bits(255)
    for edge in ([255] * 6, [-255] * 6, [255, -255, 0, 255, -1, 1]):
        for width, ok in ((bits, True), (bits - 1, False)):
            n = (1 << 6 * width) + (1 << 3 * width) + 1
            s = sum(d << width * k for k, d in enumerate(edge))
            assert (Packing(width, 1, n).unpack(s) == Cyc9(edge)) is ok


# values over denominators 1 to 9, zero among them, held as either scalar type
ninths = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
packed_entries = st.one_of(st.just(ZERO), st.builds(Cyc, ninths, ninths),
                           st.builds(Cyc9, st.lists(ninths, min_size=6, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), packed_entries, packed_entries),
                min_size=1, max_size=8))
def test_packed_inner_product_matches_cyc9_sums(terms):
    weights = [w for w, _, _ in terms]
    xs, ys = [x for _, x, _ in terms], [y for _, _, y in terms]
    packing, (px, _), (_, cy) = pack_table([xs, ys], sum(map(abs, weights)), 1)
    s = sum(w * a * b for w, a, b in zip(weights, px, cy))
    want = sum((Cyc9.from_scalar(x) * Cyc9.from_scalar(y).conj() * w
                for w, x, y in terms), Cyc9())
    assert packing.unpack(s) == want
    # the residue is the packing of the reduced sum, so equal values compare as ints
    scale, rest = divmod(packing.den ** 2, want.d)
    assert rest == 0
    reduced = sum(a * scale << packing.bits * k for k, a in enumerate(want.n))
    assert s % packing.modulus == reduced % packing.modulus


edge_digits = st.integers(2, 80).flatmap(lambda bits: st.tuples(
    st.just(bits),
    st.lists(st.one_of(st.sampled_from([2 ** (bits - 1) - 1, 1 - 2 ** (bits - 1),
                                        2 ** (bits - 2) - 1, 1 - 2 ** (bits - 2), 0]),
                       st.integers(1 - 2 ** (bits - 1), 2 ** (bits - 1) - 1)),
             min_size=6, max_size=6),
    st.lists(st.integers(-2 ** 90, 2 ** 90), min_size=0, max_size=5),
    st.integers(1, 9)))


@settings(max_examples=60, deadline=None)
@given(edge_digits)
def test_symmetric_residue_reads_back_reduced_digits(case):
    # P(X) = R(X) + Q(X) N: any multiple of N leaves R, digits up to the
    # edge 2^(B-1) - 1 of packing_bits(bound) and the one a bit inside it
    bits, digits, quotient, den = case
    n = (1 << 6 * bits) + (1 << 3 * bits) + 1
    s = (sum(d << bits * k for k, d in enumerate(digits))
         + sum(q << bits * k for k, q in enumerate(quotient)) * n)
    assert Packing(bits, den, n).unpack(s) == Cyc9([Fraction(d, den * den) for d in digits])


def _matrices(n, count, entries):
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.lists(square.map(CycMatrix), min_size=count, max_size=count)


# entries over mixed denominators, zero among them, held as either scalar type
mixed = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
kernel_entries = st.one_of(st.just(ZERO), st.builds(Cyc, mixed, mixed),
                           st.builds(Cyc9, st.lists(mixed, min_size=6, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: _matrices(n, 2, kernel_entries)))
def test_state_mul_matches_matrix_products(mats):
    A, B = mats
    got = state_mul(matrix_state(A.rows), matrix_state(B.rows))
    assert CycMatrix.from_state(got) == A * B
    assert got == matrix_state((A * B).rows)  # reduced: equal values, equal states
    eye = matrix_state(CycMatrix.identity(A.n).rows)
    assert state_mul(eye, matrix_state(A.rows)) == matrix_state(A.rows)
    assert state_trace(got) == (A * B).trace()
    assert state_times_w(got) == matrix_state((A * B).scale(OMEGA).rows)


def _coefficients(x):
    """The power-basis coefficients of a Cyc (p + q w) / d or a Cyc9, as
    six Fractions; w = z^3."""
    if isinstance(x, Cyc):
        return [Fraction(x.p, x.d), 0, 0, Fraction(x.q, x.d), 0, 0]
    return [Fraction(a, x.d) for a in x.n]


def _fraction_product(A, B):
    """Reference for state_mul, sharing no code with cyclo9: each entry of
    A B as a sum of polynomial products of Fraction 6-vectors, reduced from
    the top degree down by z^6 = -z^3 - 1, i.e. z^k = -z^(k-3) - z^(k-6)."""
    out = []
    for i in range(A.n):
        row = []
        for j in range(A.n):
            poly = [Fraction(0)] * 11
            for k in range(A.n):
                a, b = _coefficients(A.rows[i][k]), _coefficients(B.rows[k][j])
                for p in range(6):
                    for q in range(6):
                        poly[p + q] += a[p] * b[q]
            for k in range(10, 5, -1):
                poly[k - 3] -= poly[k]
                poly[k - 6] -= poly[k]
            row.append(poly[:6])
        out.append(row)
    return out


def _state_fractions(state):
    rows, den = state
    return [[[Fraction(0)] * 6 if n is None else [Fraction(a, den) for a in n] for n in row]
            for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: _matrices(n, 3, kernel_entries)))
def test_state_mul_matches_a_fraction_reference(mats):
    A, B, C = mats
    a, b, c = (matrix_state(M.rows) for M in mats)
    want = _fraction_product(A, B)
    assert _state_fractions(state_mul(a, b)) == want
    # associativity, which restrict_to_projective relies on for the pairs it skips
    assert state_mul(state_mul(a, b), c) == state_mul(a, state_mul(b, c))
    # the trace-only product, against the same reference
    trace = state_mul_trace(a, b)
    assert trace == state_trace(state_mul(a, b))
    assert _coefficients(trace) == [sum(want[i][i][p] for i in range(A.n)) for p in range(6)]
