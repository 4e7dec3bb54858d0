"""Exact arithmetic in Q(zeta9), the ninth cyclotomic field.

The purely-spin representations cannot be realized over Q(w): the cube
normalization of their intertwiners needs scalars t with t^3 in Q(w) but t
itself only in Q(zeta9) (their characters take values like (w^2 - w) zeta9^2,
ninth-root territory).  Q(zeta9) is the minimal faithful field here since
the representation group has exponent 9.

Elements are polynomials in zeta9 of degree < 6 over Q, reduced modulo the
ninth cyclotomic polynomial x^6 + x^3 + 1.  One is stored as six Python int
numerators over one denominator, n / d with d > 0 and the gcd of all seven
ints 1 (zero is 0/1), so arithmetic runs on ints with one gcd per result
and equal values have equal state.  Like `Cyc`, it coerces only ints,
other rationals and the two fields' values, and it hashes from its ints.
Q(w) embeds via w = zeta9^3; values lying in the subfield print in the Q(w)
grammar, a sublanguage of this one, and `parse_scalar` (ASCII digits only,
each numeral read as an int pair) is the one reader of both.

Representations compute on the exact matrix kernel near the end of the
module, on Python ints: a matrix is a state, rows of entries that are None
(zero) or six numerators over one denominator in lowest terms, so equal
matrices have equal states (`matrix_state`).  `state_mul` multiplies only
pairs of nonzero entries, each by `_poly_mul`, the 6 x 6 convolution
unrolled, memoized over entry pairs (`_entry_mul`); `state_mul_trace`
gives the trace of a product without forming it.
`verify`'s table-wide sums (the Gram matrix and the column relations of
the character table) pack each value as one Python int by Kronecker
substitution (`pack_table`), so an inner product is one sum of int
products, and compare residues mod X^6 + X^3 + 1 (`Packing`); Python
ints cannot wrap, so no sum needs a range check.  Scalar and kernel
products reduce through `_reduce`, so the rule is written down once.
"""

from functools import lru_cache
import math
import numbers
import operator
import re
from typing import NamedTuple

from .cyclo import (W_SYMS, Cyc, CycError, _cyc, _hash_ratio, _ratio, as_cyc, cyc_cbrt, power,
                    root_of_unity, terms_str)


def _reduce(coeffs):
    """Reduce the 11 coefficients of a degree < 11 polynomial modulo
    x^6 + x^3 + 1 to degree < 6: z^k = -z^(k-3) - z^(k-6), k = 10 down to 6."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = coeffs
    c4, c7 = c4 - c10, c7 - c10
    c3, c6 = c3 - c9, c6 - c9
    c2, c5 = c2 - c8, c5 - c8
    c1, c4 = c1 - c7, c4 - c7
    return c0 - c6, c1, c2, c3 - c6, c4, c5


def _poly_mul(x, y):
    """Product of two int coefficient 6-tuples, reduced to degree < 6: the
    6 x 6 convolution unrolled, then `_reduce`."""
    x0, x1, x2, x3, x4, x5 = x
    y0, y1, y2, y3, y4, y5 = y
    return _reduce((x0 * y0,
                    x0 * y1 + x1 * y0,
                    x0 * y2 + x1 * y1 + x2 * y0,
                    x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0,
                    x0 * y4 + x1 * y3 + x2 * y2 + x3 * y1 + x4 * y0,
                    x0 * y5 + x1 * y4 + x2 * y3 + x3 * y2 + x4 * y1 + x5 * y0,
                    x1 * y5 + x2 * y4 + x3 * y3 + x4 * y2 + x5 * y1,
                    x2 * y5 + x3 * y4 + x4 * y3 + x5 * y2,
                    x3 * y5 + x4 * y4 + x5 * y3,
                    x4 * y5 + x5 * y4,
                    x5 * y5))


class Cyc9:
    """A number n / d in Q(zeta9) on the power basis 1, z, ..., z^5; immutable."""

    __slots__ = ("n", "d")

    def __new__(cls, coeffs=()):
        try:
            ratios = [_ratio(x) for x in coeffs]
        except TypeError:  # not iterable
            raise CycError("Cyc9 takes a sequence of coefficients, not %r" % (coeffs,)) from None
        d = math.lcm(*(e for _, e in ratios))
        folded = [0] * 11  # z^9 = 1
        for k, (p, e) in enumerate(ratios):
            folded[k % 9] += p * (d // e)
        return _cyc9(_reduce(folded), d)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc9 is immutable")

    @classmethod
    def from_scalar(cls, x):
        return x if type(x) is Cyc9 else _cyc9(*_state9(x))

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        return _combine(operator.add, self.n, self.d, *_state9(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _combine(operator.sub, self.n, self.d, *_state9(other))

    def __rsub__(self, other):
        return _combine(operator.sub, *_state9(other), self.n, self.d)

    def __neg__(self):
        return _cyc9(tuple(-a for a in self.n), self.d)

    def __mul__(self, other):
        n, d = _state9(other)
        return _cyc9(_poly_mul(self.n, n), self.d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Cyc9.from_scalar(other).inverse()

    def __rtruediv__(self, other):
        return Cyc9.from_scalar(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, _C9_ONE)

    def inverse(self):
        """Multiplicative inverse: the product y of the five other Galois
        conjugates over the norm, which is the rational integer n * y."""
        if self.is_zero():
            raise CycError("division by zero in Q(zeta9)")
        y = (1, 0, 0, 0, 0, 0)
        for table in _GALOIS:
            y = _poly_mul(y, _apply(self.n, table))
        norm = _poly_mul(self.n, y)[0]  # positive: the conjugates pair off as |s|^2
        return _cyc9(tuple(self.d * v for v in y), norm)

    # -- field-specific pieces ---------------------------------------------

    def conj(self):
        """Complex conjugate, zeta9 -> zeta9^-1."""
        return _cyc9(_apply(self.n, _CONJ_BASIS), self.d)

    def is_zero(self):
        return not any(self.n)

    def to_cyc(self):
        """The same number as a Cyc if it lies in Q(w), else None."""
        n = self.n
        if n[1] or n[2] or n[4] or n[5]:
            return None
        return _cyc(n[0], n[3], self.d)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (Cyc9, Cyc, int, numbers.Rational)):
            return NotImplemented
        return (self.n, self.d) == _state9(other)

    def __hash__(self):
        # a value in Q(w) hashes as the equal Cyc, any other as its coefficients
        sub = self.to_cyc()
        return hash(tuple(_hash_ratio(a, self.d) for a in self.n) if sub is None else sub)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "Cyc9(%r)" % scalar_str(self)


_new = object.__new__
_set_n, _set_d = Cyc9.n.__set__, Cyc9.d.__set__


def _cyc9(n, d):
    """The Cyc9 n / d for a 6-tuple of ints n and d > 0, reduced by one gcd."""
    g = math.gcd(*n, d)
    if g != 1:
        n, d = tuple(a // g for a in n), d // g
    x = _new(Cyc9)
    _set_n(x, n)
    _set_d(x, d)
    return x


def _combine(op, n, d, m, e):
    """op (add or sub) of n / d and m / e, coefficient-wise."""
    if d != e:
        n, m, d = [a * e for a in n], [b * d for b in m], d * e
    return _cyc9(tuple(map(op, n, m)), d)


def _state9(x):
    """(n, d) of a Cyc9, Cyc or rational (int, Fraction); CycError for other types."""
    if type(x) is Cyc9:
        return x.n, x.d
    if isinstance(x, Cyc):
        return (x.p, 0, 0, x.q, 0, 0), x.d
    if isinstance(x, (int, numbers.Rational)):
        p, d = _ratio(x)
        return (p, 0, 0, 0, 0, 0), d
    raise CycError("cannot coerce %r into Q(zeta9)" % (x,))


def _basis_row(k):
    """z^k (0 <= k <= 10) reduced to the power basis, as six integers."""
    return _reduce([0] * k + [1] + [0] * (10 - k))


def _apply(n, table):
    """The coefficient vector n mapped through the rows of `table`."""
    return tuple(sum(a * row[j] for a, row in zip(n, table)) for j in range(6))


# The automorphisms z -> z^s other than the identity, s = 2, 4, 5, 7, 8, as
# tables whose row k is the image of z^k; s = 8 is complex conjugation.
_GALOIS = [tuple(_basis_row(s * k % 9) for k in range(6)) for s in (2, 4, 5, 7, 8)]
_CONJ_BASIS = _GALOIS[-1]
_C9_ONE = Cyc9((1,))


def zeta9(k=1):
    """zeta9^k as an exact Cyc9."""
    return _cyc9(_basis_row(k % 9), 1)


def cyc9_cbrt(v):
    """A cube root in Q(zeta9) of a Q(w) value, or None.

    Every such root is s * zeta9^j with s in Q(w), since zeta9^3 = w; try
    the three twists and reuse the Q(w) cube-root search.  A root lying in
    Q(w) (j = 0) is returned as the Cyc s itself.
    """
    v = v.to_cyc() if type(v) is Cyc9 else as_cyc(v)
    if v is None:
        raise CycError("cube roots only implemented for Q(w) radicands")
    for j in range(3):
        s = cyc_cbrt(v * root_of_unity(-j))
        if s is not None:
            return s if j == 0 else Cyc9.from_scalar(s) * zeta9(j)
    return None


# -- serialization over both fields ------------------------------------------

_Z_SYMS = ("", "z", "z^2", "z^3", "z^4", "z^5")


def scalar_str(x):
    """Canonical string for a Cyc, Cyc9 or rational, the one printer of both
    fields: "0", "w", "-1-1*w", "5/3+2*w", "z^2"; Q(w) values use the w
    grammar, and anything else is a CycError."""
    sub = x.to_cyc() if type(x) is Cyc9 else as_cyc(x)
    if sub is None:
        return terms_str(x.n, x.d, _Z_SYMS)
    return terms_str((sub.p, sub.q), sub.d, W_SYMS)


# One signed term: a numeral, a numeral times a symbol, or a bare symbol.
# ASCII only, so every digit is one that `scalar_str` prints.
_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)
        (?: (?P<num>\d+(?:/\d+)?) (?:\*(?P<sym>w|z(?:\^\d+)?))?
          | (?P<bare>w|z(?:\^\d+)?) )""",
    re.VERBOSE | re.ASCII,
)


def parse_scalar(text):
    """Parse the canonical scalar grammar of `scalar_str`, spaces ignored:
    signed terms "p/q", "p/q*w" or "w", and "p/q*z^k" or "z^k" for zeta9^k
    with 1 <= k <= 5 (a bare "z" is "z^1").  Each numeral is an int pair,
    and the terms are summed over their least common denominator.  Returns a
    Cyc when there is no z term, a Cyc9 otherwise; anything else, text or
    not, raises CycError."""
    if not isinstance(text, str):
        raise CycError("a scalar literal is text, not %r" % (text,))
    s = text.strip().replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if not s or "".join(terms) != s:
        raise CycError("malformed scalar literal: %r" % text)
    coeffs, d, has_z = [0] * 6, 1, False  # the sum so far, coeffs / d
    for term in terms:
        m = _TERM_RE.fullmatch(term)
        if m is None:
            raise CycError("malformed term %r in %r" % (term, text))
        p, q = _numeral(m["num"], text) if m["num"] else (1, 1)
        sym = m["sym"] or m["bare"]
        k = {None: 0, "w": 3}.get(sym)
        if k is None:  # "z" or "z^e"
            k, has_z = _numeral(sym[2:] or "1", text)[0], True
            if not 1 <= k <= 5:
                raise CycError("zeta9 exponent %d outside 1..5 in %r" % (k, text))
        f = q // math.gcd(d, q)  # the sum moves to the denominator lcm(d, q)
        coeffs, d = [c * f for c in coeffs], d * f
        coeffs[k] += (-p if m["sign"] == "-" else p) * (d // q)
    return _cyc9(tuple(coeffs), d) if has_z else _cyc(coeffs[0], coeffs[3], d)


def _numeral(numeral, text):
    """(p, q) of a numeral "p" or "p/q" matched inside the literal `text`;
    a zero denominator or a numeral too long for int() raises CycError."""
    p, _, q = numeral.partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError:  # more digits than int() reads
        q = 0
    if not q:
        raise CycError("bad number %r in %r" % (numeral, text))
    return p, q


# -- exact matrix kernel on Python ints ----------------------------------------

def from_lattice(coeffs, den=1):
    """The scalar with coefficient vector coeffs / den (den > 0); a Cyc
    when it lies in Q(w), otherwise a Cyc9."""
    n = tuple(map(int, coeffs))
    if n[1] or n[2] or n[4] or n[5]:
        return _cyc9(n, int(den))
    return _cyc(n[0], n[3], int(den))


def matrix_state(rows):
    """The state (rows, den) of a matrix of scalars (Cyc, Cyc9, int,
    Fraction): each entry is None for zero, else its six numerators over the
    one denominator den > 0, the least common one of the entries.  No prime
    divides den and every numerator, so equal matrices have equal states."""
    states = [[_state9(x) for x in row] for row in rows]
    den = math.lcm(*(d for row in states for _, d in row))
    return tuple(tuple(None if not any(n) else n if d == den else tuple(a * (den // d) for a in n)
                       for n, d in row) for row in states), den


@lru_cache(maxsize=512)
def _entry_mul(x, y):
    """`_poly_mul` of two kernel entries, memoized.  The entries of the
    representations here are roots of unity and a few small multiples of
    them, so nearly every entry product repeats: a `verify` makes 24,932
    of them over 153 distinct pairs of entries."""
    return _poly_mul(x, y)


def state_mul(a, b):
    """The state of the product of two states' matrices.  Only pairs of
    nonzero entries are multiplied (`_entry_mul`), and one gcd over the
    nonzero results brings the product to lowest terms."""
    (a_rows, a_den), (b_rows, b_den) = a, b
    g = den = a_den * b_den
    out = []
    for row in a_rows:
        acc = [None] * len(b_rows)
        for x, b_row in zip(row, b_rows):
            if x is not None:
                for j, y in enumerate(b_row):
                    if y is not None:
                        c, p = acc[j], _entry_mul(x, y)
                        acc[j] = p if c is None else tuple(map(operator.add, c, p))
        for j, c in enumerate(acc):
            if c is not None:
                if not any(c):
                    acc[j] = None
                elif g != 1:
                    g = math.gcd(g, *c)
        out.append(tuple(acc))
    if g != 1:
        out = [tuple(n and tuple(map(g.__rfloordiv__, n)) for n in row) for row in out]
    return tuple(out), den // g


def state_trace(state):
    """The trace of a state's matrix, as a scalar."""
    rows, den = state
    diagonal = [row[i] for i, row in enumerate(rows) if row[i] is not None]
    return from_lattice([sum(col) for col in zip(*diagonal)] if diagonal else (0,) * 6, den)


def state_mul_trace(a, b):
    """The trace of the product of two states' matrices, sum a_ij b_ji,
    as a scalar, without forming the product."""
    (a_rows, a_den), (b_rows, b_den) = a, b
    terms = [_entry_mul(x, b_row[i]) for i, row in enumerate(a_rows)
             for x, b_row in zip(row, b_rows) if x is not None and b_row[i] is not None]
    return from_lattice([sum(col) for col in zip(*terms)] if terms else (0,) * 6, a_den * b_den)


def state_times_w(state):
    """The state of w times a state's matrix.  w z^k = z^(k+3), and z^6, z^7,
    z^8 reduce to -z^3 - 1, -z^4 - z, -z^5 - z^2; w is a unit of Z[zeta9],
    so the state stays in lowest terms."""
    rows, den = state
    return tuple(tuple(n and (-n[3], -n[4], -n[5], n[0] - n[3], n[1] - n[4], n[2] - n[5])
                       for n in row) for row in rows), den


# -- Kronecker substitution, for the table-wide sums of `verify` ---------------

def packing_bits(bound):
    """The digit width B of a packing whose reduced digits are at most
    `bound` in magnitude: the least B with 2^(B-1) > bound."""
    return bound.bit_length() + 1


class Packing(NamedTuple):
    """Values over one denominator `den` packed as Python ints, Kronecker
    substitution (Schonhage 1982): n / den with numerators c_0..c_5 is the
    int sum c_k X^k, X = 2^bits.  A sum of products of packed values is
    then one int, P(X) for the unreduced degree < 11 polynomial P of the
    sum of products, whose value has denominator den^2.

    P reduced by z^6 = -z^3 - 1 is R, and P = R + Q (x^6 + x^3 + 1) with Q
    integral, the divisor being monic; so P(X) = R(X) mod the int
    N = X^6 + X^3 + 1 (`modulus`).  While each digit of R is below
    X / 2 = 2^(bits - 1) in magnitude, |R(X)| <= (X/2 - 1)(X^6 - 1)/(X - 1)
    < (X^6 - 1) / 2 < N / 2: R(X) is P(X)'s symmetric residue mod N, and
    its digits, each in -X/2 < d < X/2, are read back uniquely.  So two
    sums are equal values exactly when their residues are equal, and only
    a sum whose value is wanted needs decoding.
    """

    bits: int
    den: int
    modulus: int

    def unpack(self, s, scale=1):
        """The value of the sum of products s, divided by `scale`: the
        digits of s's symmetric residue mod N over den^2 scale."""
        r, n = s % self.modulus, self.modulus
        if r > n >> 1:
            r -= n
        half, mask = 1 << (self.bits - 1), (1 << self.bits) - 1
        digits = []
        for _ in range(6):
            d = ((r + half) & mask) - half  # the signed digit, -X/2 <= d < X/2
            digits.append(d)
            r = (r - d) >> self.bits
        return from_lattice(digits, self.den * self.den * scale)


def pack_table(rows, weight, target):
    """(packing, packed rows, packed conjugate rows) of a table of scalars
    (Cyc, Cyc9, int, Fraction) over their least common denominator, for
    sums of products value * conj(value) whose int weights have absolute
    sum at most `weight`, each compared with a rational integer of
    magnitude at most `target`.  Each distinct value is packed once.

    The digit width follows from the data.  With every numerator of a value
    at most m and of a conjugate at most m' in magnitude, the z^k
    coefficient of an unreduced sum is at most 6 m m' weight: each of its
    products contributes at most six pairs z^p z^q with p + q = k.  The
    reduction gives (p0 - p6 + p9, p1 - p7 + p10, p2 - p8, p3 - p6,
    p4 - p7, p5 - p8), at most three terms a digit, so no reduced digit
    exceeds 18 m m' weight, and a target t, packed as t den^2, has the one
    digit t den^2.  `packing_bits` of the larger bound then meets the
    condition of `Packing`.
    """
    states = [[_state9(x) for x in row] for row in rows]
    distinct = {s for row in states for s in row}
    den = math.lcm(*(d for _, d in distinct))
    nums = {(n, d): tuple(a * (den // d) for a in n) for n, d in distinct}
    conjs = {s: _apply(n, _CONJ_BASIS) for s, n in nums.items()}
    m = max((abs(a) for n in nums.values() for a in n), default=0)
    mc = max((abs(a) for n in conjs.values() for a in n), default=0)
    bits = packing_bits(max(18 * m * mc * weight, target * den * den))
    packing = Packing(bits, den, (1 << 6 * bits) + (1 << 3 * bits) + 1)

    def pack(n):
        return sum(c << bits * k for k, c in enumerate(n))

    value, conj = {s: pack(n) for s, n in nums.items()}, {s: pack(n) for s, n in conjs.items()}
    return (packing, [[value[s] for s in row] for row in states],
            [[conj[s] for s in row] for row in states])
