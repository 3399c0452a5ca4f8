"""Exact arithmetic in the Gaussian rationals Q(i).

Every coefficient in the package is a GaussianRational; there is no floating
point anywhere.  The imaginary unit matters: the twisted contraction carries
an explicit factor -i, so the base field cannot be shrunk to Q without
silently changing trace normalizations.

A value is stored as three ints, (a + b*i)/d, in canonical form: d > 0 and
gcd(a, b, d) = 1.  Equal values therefore have equal triples, and when both
operands have d = 1 (the common case) add, sub, mul and neg are plain int
arithmetic with no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


_new = object.__new__


class GaussianRational:
    """Element (a + b*i)/d of Q(i) in canonical integer form."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _as_fraction(re), _as_fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        # d is the lcm of two reduced denominators, so gcd(a, b, d) = 1
        self._a = re.numerator * (d // dr)
        self._b = im.numerator * (d // di)
        self._d = d

    @property
    def re(self) -> Fraction:
        """Real part, an exact rational."""
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        """Imaginary part, an exact rational."""
        return Fraction(self._b, self._d)

    def triple(self) -> tuple:
        """(a, b, d), the canonical integers of (a + b*i)/d."""
        return self._a, self._b, self._d

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == 1 and e == 1:
            return _make(self._a + other._a, self._b + other._b, 1)
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(
            self._a * e + other._a * d, self._b * e + other._b * d, d * e
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == 1 and e == 1:
            return _make(self._a - other._a, self._b - other._b, 1)
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(
            self._a * e - other._a * d, self._b * e - other._b * d, d * e
        )

    def __rsub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:
                return _reduced(self._a * other, self._b * other, self._d)
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _make(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def inverse(self) -> "GaussianRational":
        """1/z = (a*d - b*d*i) / (a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced(a * d, -b * d, norm)

    def __truediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d; the triple must already be canonical."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any d > 0, brought to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


def _coerce_or_none(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def _imag_str(b: int, d: int) -> str:
    if b == d:
        return "i"
    if b == -d:
        return "-i"
    return f"{_ratio_str(b, d)}*i"


def scalar_str(z: GaussianRational) -> str:
    """Canonical text form: rationals as p/q, complex values as a+b*i."""
    a, b, d = z._a, z._b, z._d
    if not b:
        return _ratio_str(a, d)
    if not a:
        return _imag_str(b, d)
    if b < 0:
        return f"{_ratio_str(a, d)}-{_imag_str(-b, d)}"
    return f"{_ratio_str(a, d)}+{_imag_str(b, d)}"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
