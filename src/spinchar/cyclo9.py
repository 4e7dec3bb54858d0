"""Exact arithmetic in Q(zeta9), the ninth cyclotomic field.

The purely-spin representations cannot be realized over Q(w): the cube
normalization of their intertwiners needs scalars t with t^3 in Q(w) but t
itself only in Q(zeta9) (their characters take values like (w^2 - w) zeta9^2,
ninth-root territory).  Q(zeta9) is the minimal faithful field here since
the representation group has exponent 9.

Elements are polynomials in zeta9 of degree < 6 over Q, reduced modulo the
ninth cyclotomic polynomial x^6 + x^3 + 1.  Q(w) embeds via w = zeta9^3;
values lying in the subfield serialize through the Q(w) grammar, so the
plain "p/q+r/s*w" format is a sublanguage of the extended one.

Bulk arithmetic uses the exact lattice kernel at the end of the module: an
array of scalars becomes an int64 array of coefficient vectors over one
common denominator (`to_lattice`).  Batched matrix products go through
`lattice_matmul`, linear maps such as conjugation through `lattice_einsum`
with the constant tables PRODUCT, CONJ and MUL_W, values over different
denominators are compared with `lattice_equal`, and single values come back
through `from_lattice`.  The tables are derived from `_reduce` and
`_CONJ_BASIS`, so the reduction rule is written down once.
"""

from fractions import Fraction
from functools import lru_cache
import math
import re

import numpy as np

from .cyclo import (Cyc, CycError, _frac_str, _rational, cyc_cbrt, cyc_str, parse_cyc,
                    root_of_unity)


def _reduce(coeffs):
    """Reduce a coefficient list modulo x^6 + x^3 + 1 to degree < 6."""
    c = list(coeffs) + [Fraction(0)] * (11 - len(coeffs))
    for k in range(10, 5, -1):
        v = c[k]
        if v:
            c[k] = Fraction(0)
            c[k - 3] -= v
            c[k - 6] -= v
    return tuple(c[:6])


class Cyc9:
    """A number in Q(zeta9) on the power basis 1, z, ..., z^5; immutable."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [Fraction(x) for x in coeffs]
        if len(c) > 6:
            c = list(_reduce(c))
        c += [Fraction(0)] * (6 - len(c))
        object.__setattr__(self, "c", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("Cyc9 is immutable")

    @classmethod
    def from_scalar(cls, x):
        if isinstance(x, Cyc9):
            return x
        if isinstance(x, Cyc):
            return cls((x.a, 0, 0, x.b))
        if isinstance(x, (int, Fraction)):
            return cls((x,))
        raise TypeError("cannot coerce %r into Q(zeta9)" % (x,))

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        other = Cyc9.from_scalar(other)
        return Cyc9(tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __sub__(self, other):
        other = Cyc9.from_scalar(other)
        return Cyc9(tuple(a - b for a, b in zip(self.c, other.c)))

    def __rsub__(self, other):
        return Cyc9.from_scalar(other) - self

    def __neg__(self):
        return Cyc9(tuple(-a for a in self.c))

    def __mul__(self, other):
        other = Cyc9.from_scalar(other)
        a, b = self.c, other.c
        prod = [Fraction(0)] * 11
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Cyc9(_reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Cyc9.from_scalar(other).inverse()

    def __rtruediv__(self, other):
        return Cyc9.from_scalar(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _C9_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse by extended Euclid against x^6 + x^3 + 1."""
        if self.is_zero():
            raise CycError("division by zero in Q(zeta9)")
        # work with plain coefficient lists, lowest degree first
        r0 = [Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(0),
              Fraction(0), Fraction(1)]  # x^6 + x^3 + 1
        r1 = list(self.c)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = r0[_poly_deg(r0)]
        inv = [x / lead for x in s0]
        return Cyc9(_reduce(inv))

    # -- field-specific pieces ---------------------------------------------

    def conj(self):
        """Complex conjugate, zeta9 -> zeta9^-1."""
        out = [Fraction(0)] * 6
        for k, ck in enumerate(self.c):
            if ck:
                for j, m in enumerate(_CONJ_BASIS[k]):
                    out[j] += ck * m
        return Cyc9(out)

    def is_zero(self):
        return not any(self.c)

    def to_cyc(self):
        """The same number as a Cyc if it lies in Q(w), else None."""
        if any(self.c[k] for k in (1, 2, 4, 5)):
            return None
        return Cyc(self.c[0], self.c[3])

    def denominator_lcm(self):
        out = 1
        for x in self.c:
            out = out * x.denominator // math.gcd(out, x.denominator)
        return out

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (Cyc, int, Fraction)):
            other = Cyc9.from_scalar(other)
        if not isinstance(other, Cyc9):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        # a value in Q(w) hashes as the equal Cyc (and so as an equal rational)
        sub = self.to_cyc()
        return hash(self.c) if sub is None else hash(sub)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "Cyc9(%r)" % scalar_str(self)


def _poly_deg(p):
    d = -1
    for i, x in enumerate(p):
        if x:
            d = i
    return d


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_divmod(a, b):
    a = list(a)
    db = _poly_deg(b)
    q = [Fraction(0)] * (max(_poly_deg(a) - db, 0) + 1)
    while _poly_deg(a) >= db:
        da = _poly_deg(a)
        f = a[da] / b[db]
        q[da - db] = f
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
    return q, a


_C9_ONE = Cyc9((1,))

# zeta9^-k for k = 0..5, as basis-coefficient rows (zeta9^9 = 1)
_CONJ_BASIS = [
    (1, 0, 0, 0, 0, 0),            # 1
    (0, 0, -1, 0, 0, -1),          # z^-1 = z^8 = -z^2 - z^5
    (0, -1, 0, 0, -1, 0),          # z^-2 = z^7 = -z - z^4
    (-1, 0, 0, -1, 0, 0),          # z^-3 = z^6 = -1 - z^3
    (0, 0, 0, 0, 0, 1),            # z^-4 = z^5
    (0, 0, 0, 0, 1, 0),            # z^-5 = z^4
]


def zeta9(k=1):
    """zeta9^k as an exact Cyc9."""
    k %= 9
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    return Cyc9(coeffs)


def cyc9_cbrt(v):
    """A cube root in Q(zeta9) of a Q(w) value, or None.

    Every such root is s * zeta9^j with s in Q(w), since zeta9^3 = w; try
    the three twists and reuse the Q(w) cube-root search.  A root lying in
    Q(w) (j = 0) is returned as the Cyc s itself.
    """
    if isinstance(v, Cyc9):
        v = v.to_cyc()
        if v is None:
            raise CycError("cube roots only implemented for Q(w) radicands")
    for j in range(3):
        s = cyc_cbrt(v * root_of_unity(-j))
        if s is not None:
            return s if j == 0 else Cyc9.from_scalar(s) * zeta9(j)
    return None


# -- serialization over both fields ------------------------------------------

def scalar_str(x):
    """Canonical string for a Cyc or Cyc9; Q(w) values use the w grammar."""
    if isinstance(x, Cyc):
        return cyc_str(x)
    sub = x.to_cyc()
    if sub is not None:
        return cyc_str(sub)
    parts = []
    for k, ck in enumerate(x.c):
        if not ck:
            continue
        sym = "" if k == 0 else ("z" if k == 1 else "z^%d" % k)
        if k == 0:
            term = _frac_str(ck)
        elif ck == 1:
            term = sym
        else:
            term = "%s*%s" % (_frac_str(ck), sym)
        if parts and ck > 0:
            parts.append("+")
        parts.append(term)
    return "".join(parts)


_Z_TERM_RE = re.compile(
    r"""^(?:
        (?P<coef>[+-]?\d+(?:/\d+)?)\*z(?:\^(?P<p1>\d+))?
        | (?P<sign>[+-]?)z(?:\^(?P<p2>\d+))?
    )$""",
    re.VERBOSE,
)


def parse_scalar(text):
    """Parse the canonical scalar grammar; returns Cyc when the string has
    no zeta9 terms, Cyc9 otherwise.  Round-trips scalar_str exactly."""
    s = text.strip().replace(" ", "")
    if "z" not in s:
        return parse_cyc(s)
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise CycError("malformed Q(zeta9) literal: %r" % text)
    coeffs = [Fraction(0)] * 6
    for term in terms:
        m = _Z_TERM_RE.match(term)
        if m is None:
            try:
                sub = parse_cyc(term)
            except CycError:
                raise CycError("malformed term %r in %r" % (term, text))
            coeffs[0] += sub.a
            coeffs[3] += sub.b
            continue
        k = int(_rational(m.group("p1") or m.group("p2") or "1", text))
        if not 1 <= k <= 5:
            raise CycError("zeta9 exponent %d outside 1..5 in %r" % (k, text))
        if m.group("coef") is not None:
            coeffs[k] += _rational(m.group("coef"), text)
        else:
            coeffs[k] += -1 if m.group("sign") == "-" else 1
    return Cyc9(coeffs)


# -- exact lattice kernel -----------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _basis_row(k):
    """z^k (0 <= k <= 10) reduced to the power basis, as six integers."""
    return [int(x) for x in _reduce([0] * k + [1])]


# Coefficient rows: PRODUCT[i, j] = z^i z^j, CONJ[i] = conj(z^i) and
# MUL_W[i] = w z^i, so a coefficient vector x maps to x @ CONJ and x @ MUL_W.
PRODUCT = np.array([[_basis_row(i + j) for j in range(6)] for i in range(6)],
                   dtype=np.int64)
CONJ = np.array(_CONJ_BASIS, dtype=np.int64)
PRODUCT.flags.writeable = False
CONJ.flags.writeable = False
MUL_W = PRODUCT[3]


def to_lattice(values):
    """Exact integer coordinates of an array of scalars.

    `values` is a nested sequence of Cyc, Cyc9, int or Fraction.  Returns
    (L, den): den is the least positive integer with den * x in Z[zeta9]
    for every x, and L is the int64 array of shape values.shape + (6,)
    holding the power-basis coefficients of den * x.  Raises CycError when
    a coefficient does not fit in int64.
    """
    arr = np.array(values, dtype=object)
    coeffs = [c for x in arr.flat for c in Cyc9.from_scalar(x).c]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    if ints and max(map(abs, ints)) > _INT64_MAX:
        raise CycError("lattice coefficient exceeds the int64 range")
    return np.array(ints, dtype=np.int64).reshape(arr.shape + (6,)), den


def from_lattice(coeffs, den=1):
    """The scalar with coefficient vector coeffs / den; a Cyc when it lies
    in Q(w), otherwise a Cyc9."""
    return _lattice_scalar(tuple(int(v) for v in coeffs), int(den))


@lru_cache(maxsize=256)
def _lattice_scalar(coeffs, den):
    # one `spinchar verify` converts about 12,000 entries but only 46
    # distinct values (export commands: at most 29), so 256 never evicts on
    # the CLI; the scalars are immutable, so one instance per value is shared
    x = Cyc9([Fraction(v, den) for v in coeffs])
    sub = x.to_cyc()
    return x if sub is None else sub


def lattice_identity(n):
    """The n x n identity matrix as a lattice array of shape (n, n, 6)."""
    out = np.zeros((n, n, 6), dtype=np.int64)
    out[np.arange(n), np.arange(n), 0] = 1
    return out


def _magnitude(op):
    return max(1, int(np.abs(op).max(initial=0)))


def _check_bound(bound):
    if bound > _INT64_MAX:
        raise CycError("lattice product could overflow int64 (bound %d)" % bound)


def lattice_einsum(subscripts, *operands):
    """np.einsum on int64 lattice arrays, refused with CycError when a sum
    of products could leave the int64 range (numpy would wrap silently).

    `subscripts` is explicit ("ab,bc->ac", no ellipsis).  The bound is the
    product of the operands' largest magnitudes (at least 1 each) times the
    number of terms summed into each output entry; it also bounds every
    intermediate that an optimized contraction order forms on the way.
    """
    inputs, output = subscripts.split("->")
    sizes = {}
    bound = 1
    for spec, op in zip(inputs.split(","), operands):
        sizes.update(zip(spec, op.shape))
        bound *= _magnitude(op)
    for axis, n in sizes.items():
        if axis not in output:
            bound *= n
    _check_bound(bound)
    return np.einsum(subscripts, *operands, optimize=True)


_PRODUCT36 = PRODUCT.reshape(36, 6)


def lattice_matmul(a, a_den, b, b_den):
    """Exact batched matrix product of a / a_den and b / b_den.

    `a` has shape (..., m, k, 6) and `b` shape (..., k, n, 6); the batch
    axes broadcast as in np.matmul.  The coefficient pairs are contracted
    over k, then reduced through PRODUCT.  Returns (c, den) with c of shape
    (..., m, n, 6) and den = a_den * b_den divided by its gcd with every
    coefficient, so denominators never grow past what the values need.
    The int64 bound is lattice_einsum's for the same contraction: the
    largest magnitudes times k * 36 terms; a product that could exceed it
    raises CycError instead of wrapping.
    """
    m, k = a.shape[-3:-1]
    n = b.shape[-2]
    if b.shape[-3] != k:
        raise CycError("lattice product of %d-column and %d-row matrices" % (k, b.shape[-3]))
    _check_bound(_magnitude(a) * _magnitude(b) * k * 36)
    lhs = np.swapaxes(a, -1, -2).reshape(a.shape[:-3] + (m * 6, k))
    rhs = b.reshape(b.shape[:-3] + (k, n * 6))
    pairs = np.matmul(lhs, rhs)  # (..., m*6, n*6): entry (i, p), (j, q)
    batch = pairs.shape[:-2]
    pairs = np.swapaxes(pairs.reshape(batch + (m, 6, n, 6)), -3, -2)
    c = pairs.reshape(batch + (m, n, 36)) @ _PRODUCT36
    den = a_den * b_den
    g = math.gcd(den, int(np.gcd.reduce(c, axis=None)))
    if g > 1:
        c //= g
        den //= g
    return c, den


def lattice_common(*pairs):
    """(L, den) pairs rescaled onto their least common denominator.

    Returns ([L1, L2, ...], den).  Raises CycError when a rescaled
    coefficient could leave int64.
    """
    den = math.lcm(*(d for _, d in pairs))
    out = []
    for L, d in pairs:
        k = den // d
        _check_bound(_magnitude(L) * k)
        out.append(L * k if k != 1 else L)
    return out, den


def lattice_equal(a, a_den, b, b_den):
    """Coefficient-wise equality of a / a_den and b / b_den, broadcast.

    Reduce the result over the value axes (the last three for matrices) to
    compare whole values.
    """
    (a, b), _ = lattice_common((a, a_den), (b, b_den))
    return a == b
