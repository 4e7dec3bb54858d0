"""Exact matrices over the cyclotomic fields and the homogeneous solver."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinchar import linalg
from spinchar.cyclo import Cyc, OMEGA
from spinchar.cyclo9 import Cyc9, matrix_state, zeta9
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


def test_det_and_inverse_match_the_permutation_expansion():
    # sparse entries, so pivots land out of order and rows vanish; the
    # reference is the Leibniz sum over permutations with their signs
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 3)
        M = CycMatrix([[rand_cyc(rng) if rng.random() < 0.5 else 0 for _ in range(n)]
                       for _ in range(n)])
        expected = Cyc(0)
        for perm in itertools.permutations(range(n)):
            term = Cyc((-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]))
            for i, j in enumerate(perm):
                term = term * M.rows[i][j]
            expected = expected + term
        assert M.det() == expected
        if expected.is_zero():
            with pytest.raises(MatrixError):
                M.inverse()
        else:
            assert M * M.inverse() == CycMatrix.identity(n)


def test_singular_and_mismatch_errors():
    with pytest.raises(MatrixError):
        CycMatrix([[1, 1], [1, 1]]).inverse()
    with pytest.raises(MatrixError):
        I3 * CycMatrix.identity(2)
    with pytest.raises(MatrixError):
        CycMatrix([[1, 2, 3], [4, 5, 6]])
    for scalar_operand in (lambda M: M * 2, lambda M: M + 2):
        with pytest.raises(MatrixError, match="a scalar goes through scale"):
            scalar_operand(CycMatrix.identity(2))


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
                    st.builds(Cyc9, st.lists(fractions, min_size=6, max_size=6)),
                    st.integers(-6, 6), fractions)


@st.composite
def grid_pairs(draw):
    """Two n x n grids of mixed scalars (Cyc, Cyc9, int, Fraction), n = 2 or 3."""
    n = draw(st.integers(2, 3))
    grid = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(grid), draw(grid)


def lowest(x):
    """x as the narrowest scalar type holding its value: a Fraction when
    rational, else a Cyc when in Q(w), else a Cyc9."""
    sub = Cyc9.from_scalar(x).to_cyc()
    if sub is None:
        return x
    return Fraction(sub.p, sub.d) if sub.q == 0 else sub


@settings(max_examples=40, deadline=None)
@given(grid_pairs())
def test_matrix_state_matches_scalar_reference(grids):
    # a matrix is its state; hold it to Cyc9 arithmetic on the entries it was built from
    a, b = grids
    n = len(a)
    A, B = CycMatrix(a), CycMatrix(b)
    assert CycMatrix(A.rows) == A and CycMatrix.from_state(A.state) == A
    for retyped in (lift(A), CycMatrix([[lowest(x) for x in row] for row in a])):
        assert retyped.state == A.state and hash(retyped) == hash(A)
    c9 = Cyc9.from_scalar
    AB = A * B
    for i in range(n):
        for j in range(n):
            assert AB.rows[i][j] == sum((c9(a[i][k]) * c9(b[k][j]) for k in range(n)), Cyc9())
    assert A.trace() == sum((c9(a[i][i]) for i in range(n)), Cyc9())
    if not A.det().is_zero():
        assert A * A.inverse() == CycMatrix.identity(n)


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
    w = g81.code("xi3")
    pairs = [(P.eval(g81.conjugate(u, w)), P.eval(u))
             for u in P.subgroup.gen_codes]
    basis = intertwiner_space(pairs, 3)
    assert len(basis) == 1


def test_nullspace_solutions_satisfy_constraints():
    rng = random.Random(13)
    for _ in range(10):
        rows = [[rand_cyc(rng) for _ in range(5)] for _ in range(3)]
        basis = nullspace(matrix_state(rows), 5)
        assert len(basis) >= 2
        for vec in basis:
            for row in rows:
                acc = Cyc(0)
                for a, x in zip(row, vec):
                    acc = acc + a * x
                assert acc.is_zero()
    # scalar rows enter as a kernel state only
    with pytest.raises(MatrixError, match=r"matrix_state\(rows\)"):
        nullspace([[1]], 1)


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


def _eliminated_inverse(M):
    """The right half of [M | I] reduced, the elimination path of inverse()."""
    n = M.n
    augmented = [row + e for row, e in zip(M.rows, CycMatrix.identity(n).rows)]
    echelon, pivots, _ = linalg._echelon(augmented, 2 * n)
    by_col = dict(zip(pivots, echelon))
    return CycMatrix([by_col[col][n:] for col in range(n)])


@st.composite
def order_three_monomials(draw):
    """P D with P a permutation of order 1 or 3 and D a diagonal of cube
    roots of unity, whose product is 1 along each cycle of P, so (P D)^3 = I."""
    n = draw(st.sampled_from([1, 2, 3]))
    cycle = draw(st.booleans()) and n == 3
    perm = draw(st.sampled_from([(1, 2, 0), (2, 0, 1)])) if cycle else tuple(range(n))
    exps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if cycle:
        exps[-1] = -sum(exps[:-1]) % 3
    return CycMatrix([[OMEGA ** exps[j] if perm[i] == j else 0 for j in range(n)]
                      for i in range(n)])


@settings(max_examples=40, deadline=None)
@given(order_three_monomials())
def test_order_three_inverse_is_the_square(M):
    n = M.n
    assert M * M * M == CycMatrix.identity(n)
    inv = M.inverse()
    assert inv == M * M == _eliminated_inverse(M)
    assert inv * M == CycMatrix.identity(n) == M * inv


def test_other_matrices_take_the_elimination_path(monkeypatch):
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *a: calls.append(1) or echelon(*a))
    J_SHIFT.inverse()
    assert calls == []  # J^3 = I
    for M in (CycMatrix.scalar(3, zeta9()), CycMatrix.diagonal([2, 1, 1])):
        assert M ** 3 != I3
        calls.clear()
        inv = M.inverse()
        assert calls == [1]
        assert inv * M == I3 == M * inv
    assert CycMatrix.scalar(3, zeta9()).inverse() == CycMatrix.scalar(3, zeta9(-1))
    assert CycMatrix.diagonal([2, 1, 1]).inverse() == CycMatrix.diagonal([Fraction(1, 2), 1, 1])
    for singular in (CycMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]), CycMatrix.scalar(3, 0)):
        with pytest.raises(MatrixError):
            singular.inverse()
