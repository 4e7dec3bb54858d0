"""Small dense matrices over Q(zeta9), and exact linear solving.

Everything is exact.  A matrix is a `cyclo9` kernel state: rows of entries
that are None (zero) or six int numerators, over one denominator in lowest
terms, so equal matrices have equal states whichever scalar types (`Cyc`,
`Cyc9`, int, `Fraction`) built them.  A product runs on the kernel; `rows`
decodes the entries as scalars for what runs entry by entry.  One
elimination, `_echelon` (an incremental Gauss-Jordan with first-nonzero
pivoting: there is no rounding, so no pivot-magnitude heuristics), gives
the determinant, the inverse and the nullspace.  A singular inverse or a
dimension mismatch raises.
"""

from .cyclo import ONE, ZERO, power
from .cyclo9 import from_lattice, matrix_state, scalar_str, state_mul, state_trace


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

    def __getitem__(self, ij):
        i, j = ij
        rows, den = self.state
        return _decode(rows[i][j], den)

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
        if isinstance(other, CycMatrix):
            self._check_dim(other)
            return CycMatrix.from_state(state_mul(self.state, other.state))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
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
        return CycMatrix([[x.conj() for x in col] for col in zip(*self.rows)])

    def is_unitary(self):
        return self * self.conj_transpose() == CycMatrix.identity(self.n)

    def as_scalar(self):
        """The c with self = c*I, or None if not a scalar matrix."""
        c = self[0, 0]
        if self != CycMatrix.scalar(self.n, c):
            return None
        return c

    def str_rows(self):
        return [[scalar_str(x) for x in row] for row in self.rows]

    def __repr__(self):
        return "CycMatrix(%r)" % (self.str_rows(),)


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


def nullspace(rows, ncols):
    """Basis of the right nullspace of the given row list, exactly.

    The rows are brought over one denominator (`matrix_state`), which is
    dropped before `_echelon`; the basis has one vector per free column
    (that column's entry set to 1).
    """
    state, _ = matrix_state(rows)
    if any(len(row) != ncols for row in state):
        raise MatrixError("row length mismatch")
    echelon, pivots, _ = _echelon([[_decode(n, 1) for n in row] for row in state], ncols)
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
        a, b = A.rows, B.rows
        for p in range(n):
            for q in range(n):
                row = [ZERO] * (n * n)
                # sum_j A[p,j] X[j,q] - sum_j X[p,j] B[j,q] = 0
                for j in range(n):
                    row[j * n + q] = row[j * n + q] + a[p][j]
                    row[p * n + j] = row[p * n + j] - b[j][q]
                rows.append(row)
    basis = nullspace(rows, n * n)
    return [CycMatrix([vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in basis]
