"""Small dense matrices over Q(zeta9), and exact linear solving.

Everything is exact: each entry is a `cyclo.Cyc` or a `cyclo9.Cyc9`, and a
matrix may hold both (the scalar types mix through their own operators, and
equal values compare and hash equal), elimination uses first-nonzero
pivoting (there is no rounding, so no pivot-magnitude heuristics), and a
singular inverse or dimension mismatch raises instead of degrading.
"""

from fractions import Fraction
import math

from .cyclo import Cyc, ONE, ZERO, as_cyc
from .cyclo9 import Cyc9, from_lattice, scalar_str


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
    def from_lattice(L, den=1):
        """The matrix with entries L[i, j] / den, L an (n, n, 6) lattice
        array of `cyclo9`."""
        return CycMatrix([[from_lattice(v, den) for v in row] for row in L])

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
            cols = list(zip(*other.rows))
            return CycMatrix([[_dot(row, col) for col in cols]
                              for row in self.rows])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = _entry(c)
        return CycMatrix([[c * x for x in row] for row in self.rows])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    def trace(self):
        t = ZERO
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def det(self):
        """Exact determinant by elimination with row swaps."""
        n = self.n
        m = [list(row) for row in self.rows]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            p = m[col][col]
            det = det * p
            below = [r for r in range(col + 1, n) if not m[r][col].is_zero()]
            if below:
                p_inv = ONE / p  # one inversion per pivot, then multiplies
                for r in below:
                    f = m[r][col] * p_inv
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return det

    def inverse(self):
        """Exact inverse via Gauss-Jordan; raises MatrixError when singular."""
        n = self.n
        m = [list(row) + [ONE if i == j else ZERO for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
            if pivot is None:
                raise MatrixError("singular matrix has no inverse")
            m[col], m[pivot] = m[pivot], m[col]
            p_inv = ONE / m[col][col]
            m[col] = [x * p_inv for x in m[col]]
            for r in range(n):
                if r != col and not m[r][col].is_zero():
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return CycMatrix([row[n:] for row in m])

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


def _dot(u, v):
    t = None
    for x, y in zip(u, v):
        if not (x.is_zero() or y.is_zero()):
            t = x * y if t is None else t + x * y
    return ZERO if t is None else t


# The cyclic shift and its square; J sends basis vector e_i to e_{i-1}.
J_SHIFT = CycMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
K_SHIFT = CycMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


# -- exact homogeneous solving -------------------------------------------

def nullspace(rows, ncols):
    """Basis of the right nullspace of the given row list, exactly.

    Gaussian elimination with first-nonzero pivoting; each input row is
    cleared of denominators first, and the returned basis has one vector per
    free column (that column's entry set to 1).
    """
    work = []
    for row in rows:
        row = [_entry(x) for x in row]
        if len(row) != ncols:
            raise MatrixError("row length mismatch")
        den = 1
        for x in row:
            d = x.denominator_lcm()
            den = den * d // math.gcd(den, d)
        work.append([x * Fraction(den) for x in row])

    pivots = {}  # column -> row index in echelon list
    echelon = []
    for row in work:
        row = list(row)
        for col, r in pivots.items():
            if not row[col].is_zero():
                f = row[col]
                row = [x - f * y for x, y in zip(row, echelon[r])]
        lead = next((c for c in range(ncols) if not row[c].is_zero()), None)
        if lead is None:
            continue
        p_inv = ONE / row[lead]
        row = [x * p_inv for x in row]
        for r, other in enumerate(echelon):
            if not other[lead].is_zero():
                f = other[lead]
                echelon[r] = [x - f * y for x, y in zip(other, row)]
        pivots[lead] = len(echelon)
        echelon.append(row)

    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for col, r in pivots.items():
            vec[col] = -echelon[r][fc]
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
