"""Small dense matrices over Q(zeta9), and exact linear solving.

Everything is exact.  A matrix is a `cyclo9` kernel state: rows of entries
that are None (zero) or six int numerators, over one denominator in lowest
terms, so equal matrices have equal states whichever scalar types (`Cyc`,
`Cyc9`, int or another rational) built them.  A product runs on the
kernel; `rows` decodes the entries as scalars for what runs entry by
entry.  One elimination, `_echelon` (an incremental Gauss-Jordan with
first-nonzero pivoting: there is no rounding, so no pivot-magnitude
heuristics), gives the determinant, the inverse and the nullspace, which
takes its rows as one kernel state (`intertwiner_space` builds them so) and
decodes them once.  A matrix whose cube is I, as every generator image
inverted here is, is inverted as its square by two kernel products
instead.  `*` multiplies matrices, `scale` scales one.  A singular inverse
or a dimension mismatch raises.
"""

from functools import cache
import math
from operator import sub

from .cyclo import ONE, ZERO, as_cyc, power
from .cyclo9 import Cyc9, from_lattice, matrix_state, scalar_str, state_mul, state_trace


class MatrixError(ArithmeticError):
    """Dimension mismatch or inversion of a singular matrix."""


class CycMatrix:
    """An n x n matrix over Q(zeta9), immutable: its kernel state."""

    __slots__ = ("state", "n")

    def __init__(self, rows):
        state = matrix_state(rows)
        n = len(state[0])
        if any(len(row) != n for row in state[0]):
            raise MatrixError("matrix must be square")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("CycMatrix is immutable")

    @staticmethod
    @cache
    def identity(n):
        """The n x n identity, built once per n."""
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
        """The matrix of a `cyclo9` kernel state, which it keeps as it is."""
        M = object.__new__(CycMatrix)
        object.__setattr__(M, "state", state)
        object.__setattr__(M, "n", len(state[0]))
        return M

    @property
    def rows(self):
        """The entries as scalars, decoded from the state on each read."""
        rows, den = self.state
        return tuple(tuple(_decode(x, den) for x in row) for row in rows)

    def _check_dim(self, other):
        if not isinstance(other, CycMatrix) or other.n != self.n:
            raise MatrixError("dimension mismatch")

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.state == other.state

    def __hash__(self):
        return hash(self.state)

    def __add__(self, other):
        self._check_dim(other)
        return CycMatrix([[x + y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        self._check_dim(other)
        return CycMatrix.from_state(state_mul(self.state, other.state))

    def scale(self, c):
        """c times the matrix; CycError unless c is a scalar."""
        c = c if isinstance(c, Cyc9) else as_cyc(c)
        return CycMatrix([[c * x for x in row] for row in self.rows])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, CycMatrix.identity(self.n))

    # -- structure -------------------------------------------------------

    def trace(self):
        return state_trace(self.state)

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
        """Exact inverse: the square when the cube is I, two kernel products
        (the generator images of the representations here have order 3),
        else the right half of [self | I] reduced; raises MatrixError when
        singular."""
        n = self.n
        square = state_mul(self.state, self.state)
        if state_mul(square, self.state) == CycMatrix.identity(n).state:
            return CycMatrix.from_state(square)
        augmented = [row + e for row, e in zip(self.rows, CycMatrix.identity(n).rows)]
        echelon, pivots, _ = _echelon(augmented, 2 * n)
        if any(col >= n for col in pivots):  # a pivot right of the bar
            raise MatrixError("singular matrix has no inverse")
        by_col = dict(zip(pivots, echelon))
        return CycMatrix([by_col[col][n:] for col in range(n)])

    def conj_transpose(self):
        return CycMatrix([[x.conj() for x in col] for col in zip(*self.rows)])

    def is_unitary(self):
        return self * self.conj_transpose() == CycMatrix.identity(self.n)

    def as_scalar(self):
        """The c with self = c*I, or None if not a scalar matrix."""
        rows, den = self.state
        c = rows[0][0]
        if any(x != (c if i == j else None)
               for i, row in enumerate(rows) for j, x in enumerate(row)):
            return None
        return _decode(c, den)

    def str_rows(self):
        return [[scalar_str(x) for x in row] for row in self.rows]

    def __repr__(self):
        return "CycMatrix(%r)" % (self.str_rows(),)


def _numerators(state, den):
    """The entries of a state's rows as numerators over den, a multiple of
    the state's denominator."""
    rows, d = state
    if d == den:
        return rows
    f = den // d
    return [[x and tuple(f * c for c in x) for x in row] for row in rows]


def _decode(n, den):
    """The scalar of a state entry: zero for None, else n / den."""
    return ZERO if n is None else from_lattice(n, den)


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


def nullspace(state, ncols):
    """Basis of the right nullspace of the rows of a `cyclo9` kernel state
    (rows, den), exactly; rows of scalars enter as `matrix_state(rows)`.

    The denominator is dropped, so `_echelon` runs on the integral
    numerators, decoded once; the basis has one vector per free column
    (that column's entry set to 1).
    """
    rows, _ = state
    if any(len(row) != ncols for row in rows):
        raise MatrixError("row length mismatch")
    echelon, pivots, _ = _echelon([[_decode(n, 1) for n in row] for row in rows], ncols)
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
    entries of X (row-major unknown order), built as one kernel state: the
    pairs' numerators over their common denominator.
    """
    pairs = list(pairs)
    if any(A.n != n or B.n != n for A, B in pairs):
        raise MatrixError("dimension mismatch in constraint pair")
    den = math.lcm(*(M.state[1] for pair in pairs for M in pair))
    rows = []
    for A, B in pairs:
        a, b = _numerators(A.state, den), _numerators(B.state, den)
        for p in range(n):
            for q in range(n):
                # sum_j A[p,j] X[j,q] - sum_j X[p,j] B[j,q] = 0
                row = [None] * (n * n)
                for j in range(n):
                    row[j * n + q] = a[p][j]
                for j, b_row in enumerate(b):
                    x = b_row[q]
                    if x is not None:
                        y = row[p * n + j]
                        d = tuple(-c for c in x) if y is None else tuple(map(sub, y, x))
                        row[p * n + j] = d if any(d) else None
                rows.append(row)
    basis = nullspace((rows, den), n * n)
    return [CycMatrix([vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in basis]
