"""Differential operators with Pauli-matrix coefficients on 2-arrays of polynomials.

A DiffOp is a finite sum of terms (polynomial in x) * (d/dx)^k * (Pauli factor),
kept in normal order: polynomial coefficients to the left of derivatives, one
Pauli factor per term.  This gives a unique canonical form, so operator
equality is plain term comparison.

The three realizations map the eight combinations of algebra.COMBINATIONS
to such operators, and each generator to the weighted sum of its
combinations:

    1   acts on (P(p), P(p-2)), basis Lam_k = (x^k, 0), chi_l = (0, x^{l-1})
    2   acts on (P(p-1), P(p-1)), basis mu_k = (x^k, 0), mu_{p+k} = (0, x^k)
    3   acts inside (P(p), P(p-1)), basis Lam_k = (p x^{p-k}, (p-k) x^{p-k-1}),
        chi_l = (0, x^{p-l-1})

where P(m) is the space of polynomials of degree at most m and P(-1) = {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from . import linalg
from .algebra import AS_COMBINATIONS, GeneratorId
from .linalg import Matrix
from .rep import Basis
from .scalars import ExtScalar, RationalLike, inv_sqrt_p


class CapViolationError(ValueError):
    """An image left its declared degree-capped polynomial space."""


class Pauli(Enum):
    S0 = "s0"
    S3 = "s3"
    SP = "s+"
    SM = "s-"


# product table: (a, b) -> ((pauli, rational weight), ...)
_PAULI_MUL: dict[tuple[Pauli, Pauli], tuple[tuple[Pauli, Fraction], ...]] = {}


def _fill_pauli_table() -> None:
    one = Fraction(1)
    half = Fraction(1, 2)
    for x in Pauli:
        _PAULI_MUL[(Pauli.S0, x)] = ((x, one),)
        _PAULI_MUL[(x, Pauli.S0)] = ((x, one),)
    _PAULI_MUL[(Pauli.S3, Pauli.S3)] = ((Pauli.S0, one),)
    _PAULI_MUL[(Pauli.S3, Pauli.SP)] = ((Pauli.SP, one),)
    _PAULI_MUL[(Pauli.SP, Pauli.S3)] = ((Pauli.SP, -one),)
    _PAULI_MUL[(Pauli.S3, Pauli.SM)] = ((Pauli.SM, -one),)
    _PAULI_MUL[(Pauli.SM, Pauli.S3)] = ((Pauli.SM, one),)
    _PAULI_MUL[(Pauli.SP, Pauli.SP)] = ()
    _PAULI_MUL[(Pauli.SM, Pauli.SM)] = ()
    _PAULI_MUL[(Pauli.SP, Pauli.SM)] = ((Pauli.S0, half), (Pauli.S3, half))
    _PAULI_MUL[(Pauli.SM, Pauli.SP)] = ((Pauli.S0, half), (Pauli.S3, -half))


_fill_pauli_table()


class Poly:
    """Dense univariate polynomial over Q[sqrt(p)], trailing zeros stripped."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[ExtScalar, ...] | list) -> None:
        cs = [ExtScalar.of(c, p) if not isinstance(c, ExtScalar) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, p: int) -> Poly:
        return cls(p, ())

    @classmethod
    def monomial(cls, p: int, degree: int, coeff: ExtScalar | RationalLike = 1) -> Poly:
        c = coeff if isinstance(coeff, ExtScalar) else ExtScalar.of(coeff, p)
        return cls(p, (ExtScalar.zero(p),) * degree + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.p == other.p and self.coeffs == other.coeffs

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.p, out)

    def __neg__(self) -> Poly:
        return Poly(self.p, tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly | ExtScalar | RationalLike) -> Poly:
        if isinstance(other, (int, Fraction, ExtScalar)):
            return self.scaled(other)
        out = [ExtScalar.zero(self.p)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return Poly(self.p, out)

    __rmul__ = __mul__

    def scaled(self, c: ExtScalar | RationalLike) -> Poly:
        c = c if isinstance(c, ExtScalar) else ExtScalar.of(c, self.p)
        return Poly(self.p, tuple(c * x for x in self.coeffs))

    def derivative(self, order: int = 1) -> Poly:
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(cs[i] * i for i in range(1, len(cs)))
        return Poly(self.p, cs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})*x^{i}" if i else f"({c})")
        return " + ".join(parts)


Caps = tuple[int, int]


@dataclass(frozen=True)
class PolyPair:
    """A 2-array of degree-capped polynomials, the realization carrier."""

    upper: Poly
    lower: Poly
    caps: Caps

    def __post_init__(self) -> None:
        d1, d2 = self.caps
        if self.upper.degree > d1 or self.lower.degree > d2:
            raise CapViolationError(
                f"degrees ({self.upper.degree},{self.lower.degree}) exceed caps {self.caps}"
            )


def space_dimension(caps: Caps) -> int:
    return (caps[0] + 1) + (caps[1] + 1)


def monomial_basis(p: int, caps: Caps) -> list[PolyPair]:
    """Monomial basis of the capped space: uppers first, then lowers."""
    out = []
    for d in range(caps[0] + 1):
        out.append(PolyPair(Poly.monomial(p, d), Poly.zero(p), caps))
    for d in range(caps[1] + 1):
        out.append(PolyPair(Poly.zero(p), Poly.monomial(p, d), caps))
    return out


class DiffOp:
    """Normal-ordered operator: sum of poly(x) * (d/dx)^k * Pauli terms."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[tuple[int, Pauli], Poly] | None = None) -> None:
        clean = {}
        for key, poly in (terms or {}).items():
            if poly:
                clean[key] = poly
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def zero(cls, p: int) -> DiffOp:
        return cls(p, {})

    @classmethod
    def term(cls, p: int, poly: Poly | list, order: int = 0, pauli: Pauli = Pauli.S0) -> DiffOp:
        poly = poly if isinstance(poly, Poly) else Poly(p, poly)
        return cls(p, {(order, pauli): poly})

    @classmethod
    def constant(cls, p: int, c: ExtScalar | RationalLike) -> DiffOp:
        return cls.term(p, [c])

    def __add__(self, other: DiffOp) -> DiffOp:
        out = dict(self.terms)
        for key, poly in other.terms.items():
            out[key] = out[key] + poly if key in out else poly
        return DiffOp(self.p, out)

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + other.scaled(-1)

    def scaled(self, c: ExtScalar | RationalLike) -> DiffOp:
        return DiffOp(self.p, {k: poly.scaled(c) for k, poly in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffOp) and self.p == other.p and self.terms == other.terms

    def __repr__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Display form, e.g. "(-1)*x^2*D + (2)*x + (1)*x*s3"."""
        if not self.terms:
            return "0"
        parts = []
        for (k, pauli), poly in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            for deg, c in enumerate(poly.coeffs):
                if not c:
                    continue
                if c.is_rational():
                    c_txt = str(c.rat)
                else:
                    sign = "+" if c.irr >= 0 else "-"
                    c_txt = f"{c.rat}{sign}{abs(c.irr)}*sqrt({self.p})"
                piece = f"({c_txt})"
                if deg:
                    piece += f"*x^{deg}" if deg > 1 else "*x"
                if k:
                    piece += f"*D^{k}" if k > 1 else "*D"
                if pauli is not Pauli.S0:
                    piece += f"*{pauli.value}"
                parts.append(piece)
        return " + ".join(parts)


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Operator product a o b, normal-ordered.

    Uses d^k o q(x) = sum_j C(k, j) q^{(j)}(x) d^{k-j} (general Leibniz rule)
    and the Pauli multiplication table; Pauli factors commute with x and d/dx.
    """
    if a.p != b.p:
        raise ValueError("p mismatch")
    out = DiffOp.zero(a.p)
    for (ka, pa), qa in a.terms.items():
        for (kb, pb), qb in b.terms.items():
            for pauli, weight in _PAULI_MUL[(pa, pb)]:
                for j in range(ka + 1):
                    coeff_poly = qa * qb.derivative(j) * Fraction(comb(ka, j)) * weight
                    if coeff_poly:
                        out = out + DiffOp.term(a.p, coeff_poly, ka - j + kb, pauli)
    return out


def supercommutator(a: DiffOp, b: DiffOp, odd_odd: bool) -> DiffOp:
    """compose(a, b) -/+ compose(b, a): anticommutator when both are odd."""
    ab = compose(a, b)
    ba = compose(b, a)
    return ab + ba if odd_odd else ab - ba


def _pauli_apply(pauli: Pauli, upper: Poly, lower: Poly) -> tuple[Poly, Poly]:
    if pauli is Pauli.S0:
        return upper, lower
    if pauli is Pauli.S3:
        return upper, -lower
    if pauli is Pauli.SP:
        return lower, Poly.zero(upper.p)
    return Poly.zero(upper.p), upper


def apply(op: DiffOp, vec: PolyPair, out_caps: Caps | None = None) -> PolyPair:
    """Apply the operator; the result lives in the caller-supplied target space."""
    caps = vec.caps if out_caps is None else out_caps
    up_acc = Poly.zero(op.p)
    low_acc = Poly.zero(op.p)
    for (k, pauli), poly in op.terms.items():
        u, l = _pauli_apply(pauli, vec.upper, vec.lower)
        if k:
            u, l = u.derivative(k), l.derivative(k)
        up_acc = up_acc + poly * u
        low_acc = low_acc + poly * l
    if up_acc.degree > caps[0] or low_acc.degree > caps[1]:
        raise CapViolationError(
            f"image degrees ({up_acc.degree},{low_acc.degree}) exceed caps {caps}"
        )
    return PolyPair(up_acc, low_acc, caps)


def to_matrix(op: DiffOp, basis: list[PolyPair]) -> Matrix:
    """Matrix whose column c are the coordinates of apply(op, basis[c]).

    Coordinates are taken in the supplied basis; when the basis spans a
    proper subspace of its capped ambient space the coordinate extraction is
    an exact linear solve, and an image outside the span raises.
    """
    if not basis:
        raise ValueError("empty basis")
    p = op.p
    caps = basis[0].caps
    nrows = space_dimension(caps)
    if nrows == 0:
        raise ValueError("zero-dimensional space")

    def coords(v: PolyPair) -> dict[int, ExtScalar]:
        out = dict(enumerate(v.upper.coeffs[: caps[0] + 1]))
        out.update((caps[0] + 1 + d, c) for d, c in enumerate(v.lower.coeffs[: caps[1] + 1]))
        return out

    def matrix(vectors: list[PolyPair]) -> Matrix:
        return linalg.transpose(linalg.sparse(nrows, ExtScalar.zero(p), map(coords, vectors)))

    bmat = matrix(basis)
    imat = matrix([apply(op, b, caps) for b in basis])
    try:
        return linalg.solve(bmat, imat)
    except linalg.InconsistentSystemError as exc:
        raise CapViolationError(f"operator image leaves the basis span: {exc}") from exc


# realizations ---------------------------------------------------------------

def realization_caps(which: int, p: int) -> Caps:
    return _realization(which)[1](p)


def realization_basis_id(which: int) -> Basis:
    """The abstract basis whose matrices each realization reproduces."""
    return _realization(which)[0]


def realization_basis(which: int, p: int) -> list[PolyPair]:
    """Polynomial carriers of the abstract basis vectors, in basis order."""
    caps = realization_caps(which, p)
    if which != 3:
        # Lam_k / mu_k are x^k in the upper slot, chi_l / mu_{p+k} monomials below
        return monomial_basis(p, caps)
    zero = Poly.zero(p)
    out: list[PolyPair] = []
    for k in range(p + 1):
        lower = Poly.monomial(p, p - k - 1, p - k) if p - k >= 1 else zero
        out.append(PolyPair(Poly.monomial(p, p - k, p), lower, caps))
    for l in range(1, p):
        out.append(PolyPair(zero, Poly.monomial(p, p - l - 1), caps))
    return out


# Each _realN gives the operator of one combination of algebra.COMBINATIONS.

def _real1(name: str, p: int) -> DiffOp:
    isp = inv_sqrt_p(p)
    s = ExtScalar.sqrt_p(p)
    T = DiffOp.term
    if name == "b-":
        return T(p, [1], 1)
    if name == "b+":
        return T(p, [0, 0, -1], 1) + T(p, [0, p - 1]) + T(p, [0, 1], 0, Pauli.S3)
    if name == "f-":
        return (
            T(p, [isp], 1, Pauli.S3)
            + T(p, [-isp], 0, Pauli.SP)
            + T(p, [isp], 2, Pauli.SM)
        )
    if name == "f+":
        return (
            T(p, [0, 0, -isp], 1, Pauli.S3)
            + T(p, [0, isp * (p - 1)], 0, Pauli.S3)
            + T(p, [0, isp])
            + T(p, [0, 0, isp], 0, Pauli.SP)
            - (
                T(p, [0, 0, isp], 2, Pauli.SM)
                + T(p, [0, isp * (2 * (1 - p))], 1, Pauli.SM)
                + T(p, [isp * (p * (p - 1))], 0, Pauli.SM)
            )
        )
    if name == "e0_sum":
        return T(p, [p])
    if name == "e0_diff":
        return T(p, [0, -2], 1) + T(p, [p - 1]) + T(p, [1], 0, Pauli.S3)
    if name == "e1_sum":
        return T(p, [s], 0, Pauli.S3)
    # e1_diff
    return (
        T(p, [0, -2 * isp], 1, Pauli.S3)
        + T(p, [isp * (p - 1)], 0, Pauli.S3)
        + T(p, [isp])
        + T(p, [0, 2 * isp], 0, Pauli.SP)
        + T(p, [0, -2 * isp], 2, Pauli.SM)
        + T(p, [isp * (2 * (p - 1))], 1, Pauli.SM)
    )


def _real2(name: str, p: int) -> DiffOp:
    isp = inv_sqrt_p(p)
    s = ExtScalar.sqrt_p(p)
    T = DiffOp.term
    if name == "b-":
        return T(p, [0, 0, -1], 1) + T(p, [0, p - 1]) + T(p, [1], 0, Pauli.SM)
    if name == "b+":
        return T(p, [1], 1) + T(p, [1], 0, Pauli.SP)
    if name == "f-":
        return T(p, [s], 0, Pauli.SM)
    if name == "f+":
        return T(p, [s], 0, Pauli.SP)
    if name == "e0_sum":
        return T(p, [p])
    if name == "e0_diff":
        return T(p, [0, 2], 1) + T(p, [1 - p]) + T(p, [-1], 0, Pauli.S3)
    if name == "e1_sum":
        return (
            T(p, [0, -2 * isp], 1, Pauli.S3)
            + T(p, [isp])
            + T(p, [isp * (p - 1)], 0, Pauli.S3)
            + T(p, [2 * isp], 1, Pauli.SM)
            + T(p, [0, isp * (2 * (p - 1))], 0, Pauli.SP)
            + T(p, [0, 0, -2 * isp], 1, Pauli.SP)
        )
    return T(p, [-s], 0, Pauli.S3)  # e1_diff


def _real3(name: str, p: int) -> DiffOp:
    isp = inv_sqrt_p(p)
    s = ExtScalar.sqrt_p(p)
    T = DiffOp.term
    if name == "b-":
        return (
            T(p, [0, 0, -1], 1)
            + T(p, [0, p - 1])
            + T(p, [0, 1], 0, Pauli.S3)
            + T(p, [1], 0, Pauli.SM)
        )
    if name == "b+":
        return T(p, [1], 1)
    if name == "f-":
        return T(p, [0, s], 0, Pauli.S3) + T(p, [s], 0, Pauli.SM) + T(p, [0, 0, -s], 0, Pauli.SP)
    if name == "f+":
        return T(p, [s], 0, Pauli.SP)
    if name == "e0_sum":
        return T(p, [p])
    if name == "e0_diff":
        return T(p, [0, 2], 1) + T(p, [1 - p]) + T(p, [-1], 0, Pauli.S3)
    if name == "e1_sum":
        return T(p, [s], 0, Pauli.S3) + T(p, [2 * isp], 1, Pauli.SM)
    return T(p, [-s], 0, Pauli.S3) + T(p, [0, 2 * s], 0, Pauli.SP)  # e1_diff


# which -> (abstract basis, degree caps of p, operator of a combination)
_REALIZATIONS = {
    1: (Basis.LAMBDA_CHI, lambda p: (p, p - 2), _real1),
    2: (Basis.MU, lambda p: (p - 1, p - 1), _real2),
    3: (Basis.THIRD, lambda p: (p, p - 1), _real3),
}


def _realization(which: int) -> tuple:
    if which not in _REALIZATIONS:
        raise ValueError(f"realization must be 1, 2 or 3, got {which}")
    return _REALIZATIONS[which]


def realization(which: int, g: GeneratorId, p: int) -> DiffOp:
    """The differential operator realizing generator g for the given p:
    the weighted sum of its combinations (algebra.AS_COMBINATIONS)."""
    combination = _realization(which)[2]
    out = DiffOp.zero(p)
    for name, weight in AS_COMBINATIONS[g]:
        out = out + combination(name, p).scaled(weight)
    return out


def realization_of_element(which: int, x, p: int) -> DiffOp:
    """Realize a SuperElement as the matching linear combination of operators."""
    out = DiffOp.zero(p)
    for g, c in x.coeffs.items():
        out = out + realization(which, g, p).scaled(c)
    return out


def realization_matrix(which: int, g: GeneratorId, p: int) -> Matrix:
    return to_matrix(realization(which, g, p), realization_basis(which, p))
