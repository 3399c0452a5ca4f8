"""Exact arithmetic in the Gaussian rationals Q(i).

Every coefficient in the package is a GaussianRational; there is no floating
point anywhere.  The imaginary unit matters: the twisted contraction carries
an explicit factor -i, so the base field cannot be shrunk to Q without
silently changing trace normalizations.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


class GaussianRational:
    """Element a + b*i of Q(i) with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

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
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / norm, -self.im / norm)

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
        return GaussianRational(self.re, -self.im)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce_or_none(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"


def scalar_str(z: GaussianRational) -> str:
    """Canonical text form: rationals as p/q, complex values as a+b*i."""
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return _imag_str(z.im)
    if z.im < 0:
        return f"{z.re}-{_imag_str(-z.im)}"
    return f"{z.re}+{_imag_str(z.im)}"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
