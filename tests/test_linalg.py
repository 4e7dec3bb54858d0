"""Exact matrices over the cyclotomic fields and the homogeneous solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinchar.cyclo import Cyc, OMEGA
from spinchar.cyclo9 import Cyc9, zeta9
from spinchar.linalg import (CycMatrix, MatrixError, J_SHIFT, K_SHIFT,
                             intertwiner_space, nullspace)


I3 = CycMatrix.identity(3)


def rand_cyc(rng):
    return Cyc(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def rand_matrix(rng, n=3):
    return CycMatrix([[rand_cyc(rng) for _ in range(n)] for _ in range(n)])


def test_shift_matrices():
    assert J_SHIFT * J_SHIFT == K_SHIFT
    assert K_SHIFT * K_SHIFT == J_SHIFT
    assert J_SHIFT ** 3 == I3
    assert K_SHIFT ** 3 == I3
    assert I3.det() == 1


def test_commutant_trace_and_det():
    # Y = aI + bJ + cK has trace 3a and det a^3 + b^3 + c^3 - 3abc
    a, b, c = Cyc(2, 1), Cyc(0, 5), Cyc(Fraction(1, 2))
    Y = I3.scale(a) + J_SHIFT.scale(b) + K_SHIFT.scale(c)
    assert Y.trace() == 3 * a
    assert Y.det() == a ** 3 + b ** 3 + c ** 3 - 3 * a * b * c
    assert Y * J_SHIFT == J_SHIFT * Y


def test_inverse_and_det_multiplicative():
    rng = random.Random(11)
    done = 0
    while done < 25:
        M = rand_matrix(rng)
        if M.det().is_zero():
            continue
        done += 1
        assert M * M.inverse() == I3
        N = rand_matrix(rng)
        assert (M * N).det() == M.det() * N.det()


def test_singular_and_mismatch_errors():
    with pytest.raises(MatrixError):
        CycMatrix([[1, 1], [1, 1]]).inverse()
    with pytest.raises(MatrixError):
        I3 * CycMatrix.identity(2)
    with pytest.raises(MatrixError):
        CycMatrix([[1, 2, 3], [4, 5, 6]])


def test_unitary_and_scalar_detection():
    assert J_SHIFT.is_unitary()
    assert CycMatrix.scalar(3, OMEGA).as_scalar() == OMEGA
    assert J_SHIFT.as_scalar() is None


def lift(M):
    """The same matrix with every entry held as a Cyc9."""
    return CycMatrix([[Cyc9.from_scalar(x) for x in row] for row in M.rows])


def test_field_promotion():
    # a matrix carries no field: Q(w) and Q(zeta9) operands mix entry by entry
    Z9 = CycMatrix.scalar(3, zeta9())
    mixed = J_SHIFT * Z9
    assert mixed == lift(J_SHIFT) * Z9
    assert mixed == Z9 * J_SHIFT
    assert (Z9 ** 9) == CycMatrix.identity(3)
    assert Z9.conj_transpose() * Z9 == CycMatrix.identity(3)


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
entries = st.one_of(st.builds(Cyc, fractions, fractions),
                    st.builds(Cyc9, st.lists(fractions, min_size=6, max_size=6)))
matrices = st.lists(entries, min_size=4, max_size=4).map(
    lambda xs: CycMatrix([xs[0:2], xs[2:4]]))


@settings(max_examples=40, deadline=None)
@given(matrices, matrices, entries)
def test_mixed_matrices_match_cyc9_lifts(A, B, c):
    LA, LB = lift(A), lift(B)
    assert A == LA and hash(A) == hash(LA)
    assert (A == B) == (LA == LB)
    assert A * B == LA * LB and B * A == LB * LA
    assert A + B == LA + LB and A - B == LA - LB
    assert A.scale(c) == LA.scale(Cyc9.from_scalar(c))
    assert A.trace() == LA.trace() and A.det() == LA.det()
    if not A.det().is_zero():
        assert A.inverse() == LA.inverse()


def test_commutant_of_shift_is_three_dimensional():
    basis = intertwiner_space([(J_SHIFT, J_SHIFT)], 3)
    assert len(basis) == 3
    for X in basis:
        assert J_SHIFT * X == X * J_SHIFT
    # I, J, K all solve the constraint, so they span the space
    for M in (I3, J_SHIFT, K_SHIFT):
        assert J_SHIFT * M == M * J_SHIFT


def test_trivial_constraint_gives_full_space():
    basis = intertwiner_space([(I3, I3)], 3)
    assert len(basis) == 9


def test_schur_one_dimensional_space():
    # the full twisted-commutation system for the first partially-spin
    # induced representation leaves exactly a line
    from spinchar.groups import get_group
    from spinchar.spinrep import g81_partial_catalog
    g81 = get_group("G81")
    P, _, _ = g81_partial_catalog(1)
    w = g81.generator("xi3").code
    pairs = [(P.eval(g81.conjugate(u, w)), P.eval(u))
             for u in P.subgroup.gen_codes]
    basis = intertwiner_space(pairs, 3)
    assert len(basis) == 1


def test_nullspace_solutions_satisfy_constraints():
    rng = random.Random(13)
    for _ in range(10):
        rows = [[rand_cyc(rng) for _ in range(5)] for _ in range(3)]
        basis = nullspace(rows, 5)
        assert len(basis) >= 2
        for vec in basis:
            for row in rows:
                acc = Cyc(0)
                for a, x in zip(row, vec):
                    acc = acc + a * x
                assert acc.is_zero()


def test_one_inversion_per_pivot(monkeypatch):
    # a purely-spin intertwiner has entries in Q(zeta9) outside Q(w), whose
    # inverses run extended Euclid; a pivot row is scaled by one inverse
    from spinchar.spinrep import r243_pure_catalog
    _, jw, _ = r243_pure_catalog(1, 1)
    assert any(isinstance(x, Cyc9) and x.to_cyc() is None for row in jw.rows for x in row)
    calls = []
    real = Cyc9.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Cyc9, "inverse", counting)
    inv = jw.inverse()
    assert len(calls) <= 3  # one per pivot column
    assert inv * jw == I3
    calls.clear()
    det = jw.det()
    assert len(calls) <= 3
    assert det ** 3 == 1  # jw^3 = I
    calls.clear()
    # the commutant of jw: 9 unknowns, 3 free (jw has three distinct eigenvalues)
    basis = intertwiner_space([(jw, jw)], 3)
    assert len(basis) == 3
    assert len(calls) <= 9 - len(basis)  # one per pivot
    for X in basis:
        assert jw * X == X * jw
