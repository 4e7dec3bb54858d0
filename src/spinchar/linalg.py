"""Small dense matrices over Q(zeta9), and exact linear solving.

Everything is exact: each entry is a `cyclo.Cyc` or a `cyclo9.Cyc9`, and a
matrix may hold both (the scalar types mix through their own operators, and
equal values compare and hash equal); a product runs on the matrix kernel
of `cyclo9`, over Python ints.  One elimination, `_echelon` (an
incremental Gauss-Jordan with first-nonzero pivoting: there is no rounding,
so no pivot-magnitude heuristics), gives the determinant, the inverse and
the nullspace.  A singular inverse or a dimension mismatch raises.
"""

import math

from .cyclo import Cyc, ONE, ZERO, as_cyc, power
from .cyclo9 import Cyc9, from_lattice, matrix_state, scalar_str, state_mul


class MatrixError(ArithmeticError):
    """Dimension mismatch or inversion of a singular matrix."""


def _entry(x):
    return x if isinstance(x, (Cyc, Cyc9)) else as_cyc(x)


class CycMatrix:
    """An n x n matrix over Q(zeta9), immutable."""

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        rows = tuple(tuple(_entry(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise MatrixError("matrix must be square")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("CycMatrix is immutable")

    @staticmethod
    def identity(n):
        return CycMatrix.scalar(n, ONE)

    @staticmethod
    def diagonal(entries):
        entries = list(entries)
        n = len(entries)
        return CycMatrix([[entries[i] if i == j else ZERO for j in range(n)]
                          for i in range(n)])

    @staticmethod
    def scalar(n, value):
        return CycMatrix.diagonal([value] * n)

    @staticmethod
    def from_state(state):
        """The matrix of a `cyclo9` kernel state."""
        return CycMatrix([[ZERO if n is None else from_lattice(n, state[1]) for n in row]
                          for row in state[0]])

    def _check_dim(self, other):
        if not isinstance(other, CycMatrix) or other.n != self.n:
            raise MatrixError("dimension mismatch")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        self._check_dim(other)
        return CycMatrix([[x + y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check_dim(other)
        return CycMatrix([[x - y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, CycMatrix):
            self._check_dim(other)
            return CycMatrix.from_state(state_mul(matrix_state(self.rows),
                                                  matrix_state(other.rows)))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = _entry(c)
        return CycMatrix([[c * x for x in row] for row in self.rows])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, CycMatrix.identity(self.n))

    # -- structure -------------------------------------------------------

    def trace(self):
        t = ZERO
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def det(self):
        """Exact determinant: the product of the elimination's leads, signed
        by the parity of its pivot columns (row additions keep the value)."""
        _, pivots, leads = _echelon(self.rows, self.n)
        if len(pivots) < self.n:
            return ZERO
        det = -ONE if sum(b > a for i, a in enumerate(pivots) for b in pivots[:i]) % 2 else ONE
        for lead in leads:
            det = det * lead
        return det

    def inverse(self):
        """Exact inverse, the right half of [self | I] reduced; raises
        MatrixError when singular."""
        n = self.n
        augmented = [row + e for row, e in zip(self.rows, CycMatrix.identity(n).rows)]
        echelon, pivots, _ = _echelon(augmented, 2 * n)
        if any(col >= n for col in pivots):  # a pivot right of the bar
            raise MatrixError("singular matrix has no inverse")
        by_col = dict(zip(pivots, echelon))
        return CycMatrix([by_col[col][n:] for col in range(n)])

    def conj_transpose(self):
        return CycMatrix([[self.rows[j][i].conj() for j in range(self.n)]
                          for i in range(self.n)])

    def is_unitary(self):
        return self * self.conj_transpose() == CycMatrix.identity(self.n)

    def as_scalar(self):
        """The c with self = c*I, or None if not a scalar matrix."""
        c = self.rows[0][0]
        if self != CycMatrix.scalar(self.n, c):
            return None
        return c

    def str_rows(self):
        return [[scalar_str(x) for x in row] for row in self.rows]

    def __repr__(self):
        return "CycMatrix(%r)" % (self.str_rows(),)


# The cyclic shift and its square; J sends basis vector e_i to e_{i-1}.
J_SHIFT = CycMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
K_SHIFT = CycMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


# -- exact homogeneous solving -------------------------------------------

def _echelon(rows, ncols):
    """Reduced row echelon form, one row at a time: each row is cleared at
    the pivots so far, and what is left, if anything, is scaled to 1 at its
    first nonzero column (one inversion, then multiplies), which becomes a
    pivot cleared from the earlier rows.  Returns (echelon, pivots, leads):
    the reduced rows, the pivot column of each and the value it was scaled by.
    """
    echelon, pivots, leads = [], [], []
    for row in rows:
        row = list(row)
        for other, col in zip(echelon, pivots):
            f = row[col]
            if not f.is_zero():
                row = [x - f * y for x, y in zip(row, other)]
        lead = next((c for c in range(ncols) if not row[c].is_zero()), None)
        if lead is None:
            continue
        p_inv = ONE / row[lead]
        leads.append(row[lead])
        row = [x * p_inv for x in row]
        for r, other in enumerate(echelon):
            f = other[lead]
            if not f.is_zero():
                echelon[r] = [x - f * y for x, y in zip(other, row)]
        echelon.append(row)
        pivots.append(lead)
    return echelon, pivots, leads


def nullspace(rows, ncols):
    """Basis of the right nullspace of the given row list, exactly.

    Each row is cleared of denominators before `_echelon`; the basis has one
    vector per free column (that column's entry set to 1).
    """
    work = []
    for row in rows:
        row = [_entry(x) for x in row]
        if len(row) != ncols:
            raise MatrixError("row length mismatch")
        den = math.lcm(*(x.d for x in row))
        work.append([x * den for x in row])
    echelon, pivots, _ = _echelon(work, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [ZERO] * ncols
            vec[fc] = ONE
            for row, col in zip(echelon, pivots):
                vec[col] = -row[fc]
            basis.append(vec)
    return basis


def intertwiner_space(pairs, n):
    """Basis of {X : A*X = X*B for every (A, B) pair}, as CycMatrix list.

    Each matrix equation contributes n^2 homogeneous linear rows in the n^2
    entries of X (row-major unknown order).
    """
    rows = []
    for A, B in pairs:
        if A.n != n or B.n != n:
            raise MatrixError("dimension mismatch in constraint pair")
        for p in range(n):
            for q in range(n):
                row = [ZERO] * (n * n)
                # sum_j A[p,j] X[j,q] - sum_j X[p,j] B[j,q] = 0
                for j in range(n):
                    row[j * n + q] = row[j * n + q] + A[p, j]
                    row[p * n + j] = row[p * n + j] - B[j, q]
                rows.append(row)
    basis = nullspace(rows, n * n)
    return [CycMatrix([vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in basis]
