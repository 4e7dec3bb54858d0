"""Exact arithmetic in the cyclotomic field Q(w), w a primitive cube root of unity.

An element (p + q*w)/d is stored as three Python ints on the basis {1, w},
reduced so that d > 0 and gcd(p, q, d) = 1 (zero is 0/1), with the relation
w^2 + w + 1 = 0 folded into multiplication.  Everything is arbitrary
precision, each operation costs integer products and one gcd, and the
state is canonical, so equality compares the three ints.  Only ints, other
rationals (`numbers.Rational`) and the field's own values are coerced;
anything else, a float or a string included, raises CycError.  Hashing
and the cube-root search run on the integer state alone.

The canonical text form is "p/q+r/s*w" with zero terms omitted, written by
`terms_str` over `W_SYMS` (`cyclo9.scalar_str`) and read by `cyclo9.parse_scalar`.
`power` is the square-and-multiply loop of both scalar types and matrices.
"""

import math
import numbers
import sys


class CycError(ArithmeticError):
    """Raised for invalid field operations (division by zero, bad parse)."""


class Cyc:
    """A number (p + q*w)/d in Q(w), immutable."""

    __slots__ = ("p", "q", "d")

    def __new__(cls, a=0, b=0):
        (p, e), (q, f) = _ratio(a), _ratio(b)
        d = e * f // math.gcd(e, f)
        return _cyc(p * (d // e), q * (d // f), d)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    # -- ring structure -------------------------------------------------
    # binary ops return NotImplemented for foreign types so that a larger
    # field's reflected operation can take over

    def __add__(self, other):
        o = _state(other)
        if o is None:
            return NotImplemented
        return _sum(self.p, self.q, self.d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _state(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return _sum(self.p, self.q, self.d, -p, -q, d)

    def __rsub__(self, other):
        o = _state(other)
        if o is None:
            return NotImplemented
        return _sum(*o, -self.p, -self.q, self.d)

    def __neg__(self):
        return _cyc(-self.p, -self.q, self.d)

    def __mul__(self, other):
        o = _state(other)
        if o is None:
            return NotImplemented
        return _product(self.p, self.q, self.d, *o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _state(other)
        if o is None:
            return NotImplemented
        return _product(self.p, self.q, self.d, *_inverse(*o))

    def __rtruediv__(self, other):
        o = _state(other)
        if o is None:
            return NotImplemented
        return _product(*o, *_inverse(self.p, self.q, self.d))

    def __pow__(self, k):
        if k < 0:
            return (ONE / self) ** (-k)
        return power(self, k, ONE)

    # -- field-specific pieces ------------------------------------------

    def conj(self):
        """Complex conjugate; sends w to w^2 = -1-w."""
        return _cyc(self.p - self.q, -self.q, self.d)

    def is_zero(self):
        return not self.p and not self.q

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        o = _state(other)
        if o is None:
            return NotImplemented
        return (self.p, self.q, self.d) == o

    def __hash__(self):
        # a rational hashes as the equal int or Fraction, any other as its coordinates
        h = _hash_ratio(self.p, self.d)
        return h if not self.q else hash((h, _hash_ratio(self.q, self.d)))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "Cyc(%r)" % terms_str((self.p, self.q), self.d, W_SYMS)


_new = object.__new__
_set_p, _set_q, _set_d = Cyc.p.__set__, Cyc.q.__set__, Cyc.d.__set__


def _cyc(p, q, d):
    """The Cyc (p + q*w)/d for ints with d > 0, reduced by one gcd."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    z = _new(Cyc)
    _set_p(z, p)
    _set_q(z, q)
    _set_d(z, d)
    return z


def _state(x):
    """(p, q, d) of a Cyc or a rational (int, Fraction); None for any other type."""
    if type(x) is Cyc:
        return x.p, x.q, x.d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, numbers.Rational):
        return int(x.numerator), 0, int(x.denominator)
    return None


def _ratio(x):
    """(numerator, denominator) in lowest terms of an int or a rational;
    CycError for any other value, floats and strings included."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, numbers.Rational):
        return int(x.numerator), int(x.denominator)
    raise CycError("cannot coerce %r into an exact rational" % (x,))


_M, _INF = sys.hash_info.modulus, sys.hash_info.inf


def _hash_ratio(p, d):
    """hash(p/d), d > 0, as the equal int or Fraction hashes: |p| d^-1 mod
    the prime M, or inf when M divides d, on p/d in lowest terms; signed
    as p, with -1 read as -2."""
    g = math.gcd(p, d)
    p, d = p // g, d // g
    h = _INF if d % _M == 0 else abs(p) * pow(d, -1, _M) % _M
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


def _sum(p, q, d, r, s, e):
    if d == e:
        return _cyc(p + r, q + s, d)
    return _cyc(p * e + r * d, q * e + s * d, d * e)


def _product(p, q, d, r, s, e):
    # (p+qw)(r+sw) = pr + (ps+qr)w + qs(w^2) and w^2 = -1-w
    qs = q * s
    return _cyc(p * r - qs, p * s + q * r - qs, d * e)


def _inverse(p, q, d):
    """State of 1/z for z = (p + q*w)/d: conj(z)/norm(z), as ints."""
    n = p * p - p * q + q * q
    if not n:
        raise CycError("division by zero in Q(w)")
    return d * (p - q), -d * q, n


def power(x, k, one):
    """x^k for an int k >= 0 by left-to-right square-and-multiply: `one`
    for k = 0, else popcount(k) + bit_length(k) - 2 products."""
    if k == 0:
        return one
    out = x
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def as_cyc(x):
    """x as a Cyc; the constructor refuses a non-rational with CycError."""
    return x if isinstance(x, Cyc) else Cyc(x)


ZERO = Cyc(0)
ONE = Cyc(1)
OMEGA = Cyc(0, 1)
OMEGA2 = Cyc(-1, -1)
W_SYMS = ("", "w")  # the basis 1, w as `terms_str` prints it

_ROOTS = (ONE, OMEGA, OMEGA2)


def root_of_unity(k):
    """w^(k mod 3) as an exact Cyc."""
    return _ROOTS[k % 3]


def root_exponent(z):
    """Inverse of root_of_unity: return k with z = w^k, or None."""
    for k in range(3):
        if z == _ROOTS[k]:
            return k
    return None


# -- canonical text form -------------------------------------------------

def _ratio_str(p, d):
    """The rational p/d, d > 0, in lowest terms: "3", "-5/3"."""
    g = math.gcd(p, d)
    return str(p // g) if d == g else "%d/%d" % (p // g, d // g)


def terms_str(coeffs, d, syms):
    """The sum of coeffs[k]/d * syms[k] as text, syms[0] = "" the constant: zero
    terms omitted, a unit coefficient and its "*" left off, "0" for zero."""
    parts = []
    for n, sym in zip(coeffs, syms):
        if n:
            coef = "" if sym and n == d else _ratio_str(n, d) + ("*" if sym else "")
            parts.append(("+" if parts and n > 0 else "") + coef + sym)
    return "".join(parts) or "0"


# -- exact cube roots ----------------------------------------------------

def _icbrt(n):
    """Integer cube root of n >= 0 if exact, else None."""
    if n < 0:
        raise ValueError
    if n < 2:
        return n
    # integer Newton from above; 2^ceil(bits/3) >= cbrt(n), and the
    # iterates fall monotonically to floor(cbrt(n))
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    return x if x * x * x == n else None


def _monotone_root(f, lo, hi):
    """The integer root of f in [lo, hi], f strictly monotone there, or None."""
    if lo > hi:
        return None
    sign = 1 if f(hi) >= f(lo) else -1
    while lo < hi:  # least x with sign * f(x) >= 0
        mid = (lo + hi) // 2
        if sign * f(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo if f(lo) == 0 else None


def cyc_cbrt(v):
    """One exact cube root of v in Q(w), or None if none exists there.

    The other roots are w and w^2 times the returned one.  For v = (p + q*w)/d,
    a = (p + q*w) d^2 = a0 + a1*w is an algebraic integer and Z[w] is integrally
    closed, so a root is b/d, b = x + y*w with int x, y and b^3 = a.  Then
    norm(b) = m = cbrt(a0^2 - a0 a1 + a1^2), and the traces 2x - y of b, w b and
    w^2 b are the three roots, all ints, of S^3 - 3 m S - T, T = 2 a0 - a1.
    |T| <= 2 m^(3/2), so the largest, s, lies in [sqrt(m), 2 sqrt(m)], where the
    cubic increases: one bisection finds it.  4m = s^2 + 3y^2 gives y, tried
    positive first, and x = (s + y)/2; cubing each candidate decides, so a
    positive rational gets its rational root and 0 gets 0.
    """
    v = as_cyc(v)
    a0, a1 = v.p * v.d ** 2, v.q * v.d ** 2
    m = _icbrt(a0 * a0 - a0 * a1 + a1 * a1)
    if m is None:
        return None
    r, T = math.isqrt(m), 2 * a0 - a1
    s = _monotone_root(lambda S: S ** 3 - 3 * m * S - T, r if r * r == m else r + 1, 2 * r + 2)
    if s is None:
        return None
    y = math.isqrt((4 * m - s * s) // 3)
    for y in (y, -y):
        t = _cyc((s + y) // 2, y, v.d)
        if t * t * t == v:
            return t
    return None
