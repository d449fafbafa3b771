"""Exact arithmetic in Q and in the quadratic extension ring Q[s]/(s^2 - p).

The generator s squares to the positive integer p, so s plays the role of
sqrt(p).  Elements are kept in canonical form (both components are reduced
fractions) and s stays symbolic even when p is a perfect square: equality
is structural in Q[s]/(s^2 - p).  There is no division operator: `inverse`
(used by the exact solve) refuses elements of zero norm a^2 - p*b^2, which
exist exactly when p is a perfect square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

RationalLike = int | Fraction


class ExtensionMismatchError(ValueError):
    """Two scalars from different extensions Q[sqrt(p)] were combined."""


class NotInvertibleError(ZeroDivisionError):
    """Inverting an element of zero norm a^2 - p*b^2."""


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


class ExtScalar:
    """An element rat + irr*s of Q[s]/(s^2 - p).

    Instances are immutable.  Mixed arithmetic with int and Fraction is
    supported; arithmetic between two ExtScalars requires equal p.
    """

    __slots__ = ("rat", "irr", "p")

    def __init__(self, rat: RationalLike, irr: RationalLike, p: int) -> None:
        if not (isinstance(p, int) and p >= 1):
            raise ValueError(f"extension parameter must be a positive integer, got {p!r}")
        object.__setattr__(self, "rat", _as_fraction(rat))
        object.__setattr__(self, "irr", _as_fraction(irr))
        object.__setattr__(self, "p", p)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExtScalar is immutable")

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
            if value.p != p:
                raise ExtensionMismatchError(f"p mismatch: {value.p} vs {p}")
            return value
        return cls(value, 0, p)

    def _coerce(self, other: object) -> ExtScalar | None:
        if isinstance(other, ExtScalar):
            if other.p != self.p:
                raise ExtensionMismatchError(f"p mismatch: {self.p} vs {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return ExtScalar(other, 0, self.p)
        return None

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: object) -> ExtScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtScalar(self.rat + o.rat, self.irr + o.irr, self.p)

    __radd__ = __add__

    def __neg__(self) -> ExtScalar:
        return ExtScalar(-self.rat, -self.irr, self.p)

    def __sub__(self, other: object) -> ExtScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtScalar(self.rat - o.rat, self.irr - o.irr, self.p)

    def __rsub__(self, other: object) -> ExtScalar:
        return (-self) + other

    def __mul__(self, other: object) -> ExtScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b s)(c + d s) = (ac + bd p) + (ad + bc) s
        return ExtScalar(
            self.rat * o.rat + self.irr * o.irr * self.p,
            self.rat * o.irr + self.irr * o.rat,
            self.p,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """The norm a^2 - p*b^2 of a + b*s."""
        return self.rat * self.rat - self.p * self.irr * self.irr

    def inverse(self) -> ExtScalar:
        n = self.norm()
        if n == 0:
            raise NotInvertibleError(f"zero norm element {self!r} is not invertible")
        return ExtScalar(self.rat / n, -self.irr / n, self.p)

    # comparisons and conversions -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtScalar):
            return self.p == other.p and self.rat == other.rat and self.irr == other.irr
        if isinstance(other, (int, Fraction)):
            return self.irr == 0 and self.rat == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rat, self.irr, self.p))

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.irr)

    def is_rational(self) -> bool:
        return self.irr == 0

    def to_float(self) -> float:
        """Embed into the reals with s -> +sqrt(p)."""
        return float(self.rat) + float(self.irr) * math.sqrt(self.p)

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"ExtScalar({self.rat}, {self.irr}, p={self.p})"

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Canonical textual form "a/b + c/d*sqrt(p)"."""
        return f"{self.rat} + {self.irr}*sqrt({self.p})"

    def as_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Exact components as ((a, b), (c, d)) integer pairs."""
        return (
            (self.rat.numerator, self.rat.denominator),
            (self.irr.numerator, self.irr.denominator),
        )

    def json_obj(self) -> dict[str, str]:
        return {"rat": str(self.rat), "irr": str(self.irr)}


def ext(p: int, rat: RationalLike, irr: RationalLike = 0) -> ExtScalar:
    """Shorthand constructor for rat + irr*sqrt(p)."""
    return ExtScalar(rat, irr, p)


def inv_sqrt_p(p: int) -> ExtScalar:
    """1/sqrt(p) = s/p, exact in Q[s]/(s^2 - p)."""
    return ExtScalar(0, Fraction(1, p), p)


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

    The exact form of an eigenvalue in spectra and models.  It lives here,
    not in spectra, so that importing models does not import numpy.
    """

    base: Fraction
    sign: int
    radicand: Fraction

    def value(self) -> float:
        return float(self.base) + self.sign * math.sqrt(float(self.radicand))

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


def parse_ext(text: str, p: int) -> ExtScalar:
    """Parse the canonical textual form "a/b + c/d*sqrt(p)"."""
    t = text.replace(" ", "")
    marker = f"*sqrt({p})"
    if marker in t:
        head, _, _ = t.partition(marker)
        # split "a/b+c/d" on the sign that separates the two components
        for idx in range(len(head) - 1, 0, -1):
            if head[idx] in "+-" and head[idx - 1] not in "+-/":
                rat = Fraction(head[:idx])
                irr = Fraction(head[idx:].lstrip("+"))
                return ExtScalar(rat, irr, p)
        return ExtScalar(0, Fraction(head), p)
    return ExtScalar(Fraction(t), 0, p)
