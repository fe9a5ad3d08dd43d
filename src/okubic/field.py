"""Exact scalars: rationals and the tower Q ⊂ Q(√3) ⊂ Q(√3, i).

Every other module computes over these types; no floating point is used
anywhere in the library.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

Rational = Fraction


def parse_rational(s) -> Fraction:
    """Parse "p/q", "p" or a decimal into a Fraction; malformed input raises
    ValueError.  A float is read as its shortest decimal, so 0.1 is 1/10."""
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def render_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Frozen:
    """Base of the value types: instances are set up in their constructors
    and never change afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")


def _init_f3(obj, an: int, bn: int, d: int) -> None:
    if d < 0:
        an, bn, d = -an, -bn, -d
    g = gcd(gcd(an, bn), d)
    if g > 1:
        an //= g
        bn //= g
        d //= g
    object.__setattr__(obj, "_an", an)
    object.__setattr__(obj, "_bn", bn)
    object.__setattr__(obj, "_d", d)


def _raw_f3(an: int, bn: int, d: int):
    out = F3.__new__(F3)
    _init_f3(out, an, bn, d)
    return out


class F3(Frozen):
    """Element a + b√3 of the real quadratic field Q(√3).

    Stored as an integer triple (a·d, b·d, d) over a common denominator
    d > 0 with gcd 1, so each arithmetic operation costs integer work
    plus one gcd normalization.
    """

    __slots__ = ("_an", "_bn", "_d")

    def __init__(self, a=0, b=0):
        a = _coerce_rational(a)
        b = _coerce_rational(b)
        d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        _init_f3(
            self,
            a.numerator * (d // a.denominator),
            b.numerator * (d // b.denominator),
            d,
        )

    @property
    def a(self) -> Fraction:
        return Fraction(self._an, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._bn, self._d)

    @classmethod
    def coerce(cls, x) -> F3:
        if isinstance(x, F3):
            return x
        if isinstance(x, int):
            return _raw_f3(x, 0, 1)
        return cls(_coerce_rational(x))

    def __repr__(self):
        return f"F3({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return render_rational(self.a)
        if self.a == 0:
            return f"{render_rational(self.b)}*sqrt3"
        return f"{render_rational(self.a)} + {render_rational(self.b)}*sqrt3"

    def __hash__(self):
        # a rational F3 equals an int or Fraction, so it hashes like one
        return hash((self._an, self._bn, self._d)) if self._bn else hash(self.a)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = F3.coerce(other)
        if not isinstance(other, F3):
            return NotImplemented
        return (
            self._an == other._an
            and self._bn == other._bn
            and self._d == other._d
        )

    def __bool__(self):
        return self._an != 0 or self._bn != 0

    def __neg__(self):
        out = F3.__new__(F3)
        object.__setattr__(out, "_an", -self._an)
        object.__setattr__(out, "_bn", -self._bn)
        object.__setattr__(out, "_d", self._d)
        return out

    def __add__(self, other):
        other = F3.coerce(other)
        if self._d == other._d:
            return _raw_f3(self._an + other._an, self._bn + other._bn, self._d)
        return _raw_f3(
            self._an * other._d + other._an * self._d,
            self._bn * other._d + other._bn * self._d,
            self._d * other._d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-F3.coerce(other))

    def __rsub__(self, other):
        return (-self) + F3.coerce(other)

    def __mul__(self, other):
        other = F3.coerce(other)
        # (a + b√3)(c + d√3) = ac + 3bd + (ad + bc)√3
        return _raw_f3(
            self._an * other._an + 3 * self._bn * other._bn,
            self._an * other._bn + self._bn * other._an,
            self._d * other._d,
        )

    __rmul__ = __mul__

    def inverse(self) -> F3:
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt3)")
        # 1/(a + b√3) = (a - b√3)/(a² - 3b²); a² = 3b² has no rational
        # solution besides a = b = 0, so the denominator is nonzero.
        return _raw_f3(
            self._d * self._an,
            -self._d * self._bn,
            self._an * self._an - 3 * self._bn * self._bn,
        )

    def __truediv__(self, other):
        return self * F3.coerce(other).inverse()

    def __rtruediv__(self, other):
        return F3.coerce(other) * self.inverse()

    def is_positive(self) -> bool:
        """Exact sign of a + b√3 under the real embedding √3 ≈ 1.732."""
        a, b = self._an, self._bn
        if a >= 0 and b >= 0:
            return a > 0 or b > 0
        if a <= 0 and b <= 0:
            return False
        # opposite signs: compare a² against 3b²
        if a > 0:  # b < 0: positive iff a > -b√3 iff a² > 3b²
            return a * a > 3 * b * b
        # a < 0, b > 0: positive iff b√3 > -a iff 3b² > a²
        return 3 * b * b > a * a

    def to_json(self):
        return {"a": render_rational(self.a), "b": render_rational(self.b)}

    @classmethod
    def from_json(cls, obj) -> F3:
        return cls(parse_rational(obj["a"]), parse_rational(obj["b"]))


SQRT3 = F3(0, 1)


class C3(Frozen):
    """Element re + im·i of Q(√3, i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", F3.coerce(re))
        object.__setattr__(self, "im", F3.coerce(im))

    @classmethod
    def coerce(cls, x) -> C3:
        if isinstance(x, C3):
            return x
        return cls(F3.coerce(x))

    def __repr__(self):
        return f"C3({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"({self.re}) + ({self.im})i"

    def __hash__(self):
        # a real C3 equals its F3 part, so it hashes like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, F3)):
            other = C3(other)
        if not isinstance(other, C3):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __neg__(self):
        return C3(-self.re, -self.im)

    def __add__(self, other):
        other = C3.coerce(other)
        return C3(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-C3.coerce(other))

    def __rsub__(self, other):
        return (-self) + C3.coerce(other)

    def __mul__(self, other):
        other = C3.coerce(other)
        return C3(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conj(self) -> C3:
        return C3(self.re, -self.im)

    def inverse(self) -> C3:
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt3, i)")
        # re² + im² ≠ 0 for nonzero z: Q(√3) is formally real.
        d = (self.re * self.re + self.im * self.im).inverse()
        return C3(self.re * d, -self.im * d)

    def __truediv__(self, other):
        return self * C3.coerce(other).inverse()

    def __rtruediv__(self, other):
        return C3.coerce(other) * self.inverse()

    def to_json(self):
        return {"re": self.re.to_json(), "im": self.im.to_json()}

    @classmethod
    def from_json(cls, obj) -> C3:
        return cls(F3.from_json(obj["re"]), F3.from_json(obj["im"]))


def sample_rational(rng: random.Random) -> Fraction:
    """Small-height rational: numerator in [-9, 9], denominator in {1, 2, 3}."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def sample_f3(rng: random.Random) -> F3:
    return F3(sample_rational(rng), sample_rational(rng))
