"""Exact arithmetic in Q and in the quadratic extension ring Q[s]/(s^2 - p).

The generator s squares to the positive integer p, so s plays the role of
sqrt(p).  An element is one integer triple (a + b*s)/d in canonical form:
d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal elements have
equal triples.  Arithmetic works on ints alone and ends in one normaliser,
which makes one gcd call (none when d = 1); no Fraction is built.  The
`rat` and `irr` components are read as Fractions, `triple` gives the
integers themselves, and `from_triple` builds an element from any integer
triple through the same normaliser.  s stays symbolic even when p is a
perfect square: equality is structural in Q[s]/(s^2 - p).
There is no division operator: `inverse` (used by the exact solve) refuses
elements of zero norm a^2 - p*b^2, which exist exactly when p is a perfect
square.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

RationalLike = int | Fraction

_gcd = math.gcd
_alloc = object.__new__


class ExtensionMismatchError(ValueError):
    """Two scalars from different extensions Q[sqrt(p)] were combined."""


class NotInvertibleError(ZeroDivisionError):
    """Inverting an element of zero norm a^2 - p*b^2."""


class FloatRangeError(ArithmeticError):
    """An exact value whose float is beyond the double range."""


def _num_den(value: RationalLike) -> tuple[int, int]:
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"not a rational value: {value!r}")


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = _gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0 and gcd(n, d) = 1, by Python's numeric hash."""
    if d == 1:
        return hash(n)
    try:
        h = hash(hash(abs(n)) * pow(d, -1, sys.hash_info.modulus))
    except ValueError:  # d is a multiple of the modulus
        h = sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _mismatch(p: int, q: int) -> ExtensionMismatchError:
    return ExtensionMismatchError(f"p mismatch: {p} vs {q}")


class ExtScalar:
    """An element rat + irr*s of Q[s]/(s^2 - p), stored as (a + b*s)/d.

    Instances are immutable: the triple lives in private slots, and `rat`,
    `irr` and `p` are read-only properties.  Mixed arithmetic with int and
    Fraction is supported; arithmetic between two ExtScalars requires
    equal p.
    """

    __slots__ = ("_a", "_b", "_d", "_p")

    def __init__(self, rat: RationalLike, irr: RationalLike, p: int) -> None:
        if not (isinstance(p, int) and p >= 1):
            raise ValueError(f"extension parameter must be a positive integer, got {p!r}")
        if type(rat) is int and type(irr) is int:
            a, b, d = rat, irr, 1
        else:
            n1, d1 = _num_den(rat)
            n2, d2 = _num_den(irr)
            # over the lcm of two reduced denominators the triple is already canonical
            d = d1 * d2 // _gcd(d1, d2)
            a, b = n1 * (d // d1), n2 * (d // d2)
        self._a = a
        self._b = b
        self._d = d
        self._p = p

    @property
    def rat(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def irr(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def p(self) -> int:
        return self._p

    def triple(self) -> tuple[int, int, int]:
        """The canonical integer triple (a, b, d) of (a + b*s)/d."""
        return self._a, self._b, self._d

    @classmethod
    def from_triple(cls, a: int, b: int, d: int, p: int) -> ExtScalar:
        """The canonical (a + b*s)/d of integers with d > 0; `triple` reads it back."""
        if d <= 0:
            raise ValueError(f"denominator must be positive, got {d}")
        return _normal(a, b, d, p)

    @classmethod
    def zero(cls, p: int) -> ExtScalar:
        return cls(0, 0, p)

    @classmethod
    def one(cls, p: int) -> ExtScalar:
        return cls(1, 0, p)

    @classmethod
    def sqrt_p(cls, p: int) -> ExtScalar:
        """The generator s, i.e. sqrt(p)."""
        return cls(0, 1, p)

    @classmethod
    def of(cls, value: RationalLike | ExtScalar, p: int) -> ExtScalar:
        if isinstance(value, ExtScalar):
            if value._p != p:
                raise _mismatch(value._p, p)
            return value
        return cls(value, 0, p)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: object) -> ExtScalar:
        p, d = self._p, self._d
        if isinstance(other, ExtScalar):
            if other._p != p:
                raise _mismatch(p, other._p)
            e = other._d
            return _normal(self._a * e + other._a * d, self._b * e + other._b * d, d * e, p)
        if isinstance(other, int):
            return _normal(self._a + other * d, self._b, d, p)
        if isinstance(other, Fraction):
            n, e = other.numerator, other.denominator
            return _normal(self._a * e + n * d, self._b * e, d * e, p)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> ExtScalar:
        return _normal(-self._a, -self._b, self._d, self._p)

    def __sub__(self, other: object) -> ExtScalar:
        p, d = self._p, self._d
        if isinstance(other, ExtScalar):
            if other._p != p:
                raise _mismatch(p, other._p)
            e = other._d
            return _normal(self._a * e - other._a * d, self._b * e - other._b * d, d * e, p)
        if isinstance(other, int):
            return _normal(self._a - other * d, self._b, d, p)
        if isinstance(other, Fraction):
            n, e = other.numerator, other.denominator
            return _normal(self._a * e - n * d, self._b * e, d * e, p)
        return NotImplemented

    def __rsub__(self, other: object) -> ExtScalar:
        return (-self) + other

    def __mul__(self, other: object) -> ExtScalar:
        p = self._p
        if isinstance(other, ExtScalar):
            if other._p != p:
                raise _mismatch(p, other._p)
            # (a + b s)(c + e s) = (ac + be p) + (ae + bc) s
            a, b, c, e = self._a, self._b, other._a, other._b
            return _normal(a * c + b * e * p, a * e + b * c, self._d * other._d, p)
        if isinstance(other, int):
            return _normal(self._a * other, self._b * other, self._d, p)
        if isinstance(other, Fraction):
            n = other.numerator
            return _normal(self._a * n, self._b * n, self._d * other.denominator, p)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> ExtScalar:
        # d / (a + b s) = d (a - b s) / (a^2 - p b^2)
        a, b, d, p = self._a, self._b, self._d, self._p
        n = a * a - p * b * b
        if n == 0:
            raise NotInvertibleError(f"zero norm element {self!r} is not invertible")
        if n < 0:
            n, d = -n, -d
        return _normal(d * a, -d * b, n, p)

    # comparisons and conversions -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtScalar):
            return (
                self._a == other._a and self._b == other._b
                and self._d == other._d and self._p == other._p
            )
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a * other.denominator == other.numerator * self._d
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return _rational_hash(self._a, self._d)
        return hash((self._a, self._b, self._d, self._p))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def is_rational(self) -> bool:
        return self._b == 0

    def to_float(self) -> float:
        """Embed into the reals with s -> +sqrt(p)."""
        d = self._d
        return self._a / d + self._b / d * math.sqrt(self._p)

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        rat, irr = _ratio_text(self._a, self._d), _ratio_text(self._b, self._d)
        return f"ExtScalar({rat}, {irr}, p={self._p})"

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Canonical textual form "a/b + c/d*sqrt(p)"."""
        return f"{_ratio_text(self._a, self._d)} + {_ratio_text(self._b, self._d)}*sqrt({self._p})"

    def json_obj(self) -> dict[str, str]:
        return {"rat": _ratio_text(self._a, self._d), "irr": _ratio_text(self._b, self._d)}


def _normal(a: int, b: int, d: int, p: int) -> ExtScalar:
    """The canonical ExtScalar (a + b*s)/d for d > 0, built without __init__."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    x = _alloc(ExtScalar)
    x._a = a
    x._b = b
    x._d = d
    x._p = p
    return x


def ext(p: int, rat: RationalLike, irr: RationalLike = 0) -> ExtScalar:
    """Shorthand constructor for rat + irr*sqrt(p)."""
    return ExtScalar(rat, irr, p)


def inv_sqrt_p(p: int) -> ExtScalar:
    """1/sqrt(p) = s/p, exact in Q[s]/(s^2 - p)."""
    return ExtScalar(0, Fraction(1, p), p)


def _log2(r: RationalLike) -> int:
    """log2 |r| to within 1, for r != 0."""
    return abs(r.numerator).bit_length() - r.denominator.bit_length()


def rational_sqrt(r: Fraction) -> Fraction | None:
    """The exact square root of a nonnegative rational, or None if irrational."""
    if r < 0:
        return None
    num = math.isqrt(r.numerator)
    den = math.isqrt(r.denominator)
    if num * num == r.numerator and den * den == r.denominator:
        return Fraction(num, den)
    return None


@dataclass(frozen=True)
class ExactEig:
    """base + sign * sqrt(radicand) with rational base and radicand >= 0.

    The exact form of an eigenvalue: models states the closed forms with
    it, and spectra the roots it finds exactly.
    """

    base: Fraction
    sign: int
    radicand: Fraction

    def value(self) -> float:
        """The nearest float to within a few ulps; an exact zero is 0.0, never -0.0.

        Raises FloatRangeError when the value is beyond the double range.
        """
        base, radicand, k = self.base, self.radicand, 0
        try:
            root, fbase = math.sqrt(radicand), float(base)
        except OverflowError:
            root = fbase = math.inf
        if not 2.0**-500 <= max(abs(fbase), root) < 2.0**500 and (base or radicand):
            # a term overflows, or loses bits as a subnormal.  base / 2^k and
            # radicand / 4^k, exact in binary, make the value 2^-k times as
            # large; k brings the larger of base^2 and the radicand to about 2^1000
            sizes = [2 * _log2(base)] if base else []
            if radicand:
                sizes.append(_log2(radicand))
            k = max(sizes) // 2 - 500
            two_k = Fraction(2) ** k
            base, radicand = base / two_k, radicand / (two_k * two_k)
            root, fbase = math.sqrt(radicand), float(base)
        try:
            if self.sign * base >= 0:
                x = fbase + self.sign * root
            else:
                # opposite signs may cancel: divide the exact base^2 - radicand
                # by base - sign*root
                num = base * base - radicand
                x = float(num) / (fbase - self.sign * root) if num else 0.0
            x = math.ldexp(x, k)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise FloatRangeError(
                "an eigenvalue, or a term of its exact form, is beyond the double range"
            )
        return x

    def __neg__(self) -> ExactEig:
        return ExactEig(-self.base, -self.sign, self.radicand)

    def exact_text(self) -> str:
        if self.sign == 0 or self.radicand == 0:
            return str(self.base)
        # fold perfect squares into the base
        root = rational_sqrt(self.radicand)
        if root is not None:
            return str(self.base + self.sign * root)
        op = "+" if self.sign > 0 else "-"
        return f"{self.base} {op} sqrt({self.radicand})"


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into an exact Fraction (no floats accepted)."""
    t = text.strip()
    if "." in t or "e" in t.lower():
        raise ValueError(f"expected exact rational a/b, got {text!r}")
    try:
        return Fraction(t)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
