"""Gaussian rational scalars.

A GaussianRational is a complex number whose real and imaginary parts are
``fractions.Fraction``. ExactMatrix computes on integer arrays over a
shared denominator, so matrix arithmetic never passes through this type.
It is still used where a single entry crosses the matrix boundary: an
entry read (ExactMatrix.__getitem__), the entries given to from_rows, the
factor of scale, and the witness vector of the positive-semidefinite test.
"""

from __future__ import annotations

from fractions import Fraction

_COERCIBLE = (int, Fraction)


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _COERCIBLE):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def abs2(self) -> Fraction:
        """Squared modulus, as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __add__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.from_value(other)
        d = other.abs2()
        if not d:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussianRational.from_value(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = GaussianRational.from_value(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
