"""Differential operators with Pauli-matrix coefficients on 2-arrays of polynomials.

A DiffOp is a finite sum of terms (polynomial in x) * (d/dx)^k * (Pauli factor),
kept in normal order: polynomial coefficients to the left of derivatives, one
Pauli factor per term.  This gives a unique canonical form, so operator
equality is plain term comparison.  Each polynomial (Poly) stores only its
nonzero coefficients.

`apply` and `to_matrix` share one image loop: a term c(x) d^k sigma sends
x^i in the slot that sigma reads to c_j i!/(i-k)! x^(i-k+j) in the slot
that sigma writes, with the sign of sigma3, and the images accumulate in
one dict by (slot, degree).  A carrier coefficient +-1 is not multiplied,
so a monomial carrier costs at most one scalar product per (term,
coefficient), and `to_matrix` builds no Poly or PolyPair.

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

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, perm

from . import linalg
from .algebra import AS_COMBINATIONS, GeneratorId
from .linalg import Matrix
from .rep import Basis
from .scalars import ExtScalar, ExtensionMismatchError, RationalLike, inv_sqrt_p


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

# how each Pauli factor acts on a 2-array: ((slot read, slot written, sign), ...)
_PAULI_ROUTE: dict[Pauli, tuple[tuple[int, int, int], ...]] = {
    Pauli.S0: ((0, 0, 1), (1, 1, 1)),
    Pauli.S3: ((0, 0, 1), (1, 1, -1)),
    Pauli.SP: ((1, 0, 1),),
    Pauli.SM: ((0, 1, 1),),
}


class Poly:
    """Univariate polynomial over Q[sqrt(p)], kept sparse like `linalg.Row`.

    `nz` holds the nonzero coefficients by ascending degree.  Arithmetic
    touches stored nonzeros only and drops the coefficients that cancel,
    zero-divisor products included, so equal polynomials have equal `nz`.
    `Poly(p, [c0, c1, ...])` takes the dense coefficient list, zeros included.
    Immutable by convention, since results may share operands and `nz` dicts.
    """

    __slots__ = ("p", "nz")

    def __init__(self, p: int, coeffs: Iterable[ExtScalar | RationalLike]) -> None:
        nz = {}
        for d, c in enumerate(coeffs):
            c = ExtScalar.of(c, p)  # raises on a coefficient of another extension
            if c:
                nz[d] = c
        self.p, self.nz = p, nz

    @classmethod
    def zero(cls, p: int) -> Poly:
        return _poly(p, {})

    @classmethod
    def monomial(cls, p: int, degree: int, coeff: ExtScalar | RationalLike = 1) -> Poly:
        c = ExtScalar.of(coeff, p)
        return _poly(p, {degree: c} if c else {})

    @property
    def degree(self) -> int:
        return next(reversed(self.nz), -1)  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.nz)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.p == other.p and self.nz == other.nz

    def __add__(self, other: Poly) -> Poly:
        _same_p(self, other)
        if not self.nz or not other.nz:
            return self if self.nz else other
        out = dict(self.nz)
        for d, c in other.nz.items():
            x = out.get(d)
            if x is None:
                out[d] = c
            elif s := x + c:
                out[d] = s
            else:
                del out[d]
        return _poly(self.p, dict(sorted(out.items())))

    def __neg__(self) -> Poly:
        return _poly(self.p, {d: -c for d, c in self.nz.items()})

    def __mul__(self, other: Poly | ExtScalar | RationalLike) -> Poly:
        if isinstance(other, (int, Fraction, ExtScalar)):
            return self.scaled(other)
        _same_p(self, other)
        if not self.nz or not other.nz:
            return other if self.nz else self  # the zero operand
        out: dict[int, ExtScalar] = {}
        for i, a in self.nz.items():
            for j, b in other.nz.items():
                x = out.get(i + j)
                out[i + j] = a * b if x is None else x + a * b
        return _poly(self.p, {d: x for d in sorted(out) if (x := out[d])})

    __rmul__ = __mul__

    def scaled(self, c: ExtScalar | RationalLike) -> Poly:
        c = ExtScalar.of(c, self.p)
        return _poly(self.p, {d: y for d, x in self.nz.items() if (y := c * x)})

    def derivative(self, order: int = 1) -> Poly:
        if not order:
            return self
        # a nonzero coefficient times a positive integer stays nonzero
        return _poly(
            self.p, {d - order: c * perm(d, order) for d, c in self.nz.items() if d >= order}
        )

    def __repr__(self) -> str:
        if not self.nz:
            return "0"
        return " + ".join(f"({c})*x^{i}" if i else f"({c})" for i, c in self.nz.items())


def _poly(p: int, nz: dict[int, ExtScalar]) -> Poly:
    """The Poly whose nonzero coefficients, by ascending degree, are nz."""
    out = object.__new__(Poly)
    out.p, out.nz = p, nz
    return out


def _same_p(a: Poly, b: Poly) -> None:
    if a.p != b.p:
        raise ExtensionMismatchError(f"p mismatch: {a.p} vs {b.p}")


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
            for deg, c in poly.nz.items():
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


Image = dict[tuple[int, int], ExtScalar]  # {(slot, degree): nonzero coefficient}


def _image(op: DiffOp, vec: tuple[dict[int, ExtScalar], dict[int, ExtScalar]]) -> Image:
    """op applied to the 2-array of {degree: coefficient} dicts, the one image loop.

    Entries that cancel are deleted.  A carrier coefficient +-1 costs no
    product, so a monomial carrier makes at most one per (term, coefficient).
    """
    out: Image = {}
    for (k, pauli), poly in op.terms.items():
        for src, dst, sign in _PAULI_ROUTE[pauli]:
            for i, a in vec[src].items():
                if i < k:
                    continue
                w = sign * perm(i, k)
                if a == 1 or a == -1:
                    w = w if a == 1 else -w
                else:
                    w = a if w == 1 else a * w
                for j, c in poly.nz.items():
                    v = c if w == 1 else c * w
                    key = (dst, i - k + j)
                    x = out.get(key)
                    if x is None:
                        if v:  # zero only as a product of zero divisors
                            out[key] = v
                    elif s := x + v:
                        out[key] = s
                    else:
                        del out[key]
    return out


def _check_p(op: DiffOp, vec: PolyPair) -> None:
    if vec.upper.p != op.p or vec.lower.p != op.p:
        raise ExtensionMismatchError(f"p mismatch: {op.p} vs {vec.upper.p}, {vec.lower.p}")


def apply(op: DiffOp, vec: PolyPair, out_caps: Caps | None = None) -> PolyPair:
    """Apply the operator; the result lives in the caller-supplied target space.

    The image of the one image loop is split into its two slots; PolyPair
    raises CapViolationError when it leaves the caps.
    """
    _check_p(op, vec)
    slots: tuple[dict, dict] = ({}, {})
    img = _image(op, (vec.upper.nz, vec.lower.nz))
    for slot, d in sorted(img):
        slots[slot][d] = img[slot, d]
    caps = vec.caps if out_caps is None else out_caps
    return PolyPair(_poly(op.p, slots[0]), _poly(op.p, slots[1]), caps)


def to_matrix(op: DiffOp, basis: list[PolyPair]) -> Matrix:
    """Matrix whose column c are the coordinates of apply(op, basis[c]).

    Each carrier's image from the one image loop goes straight into a
    coordinate column; a coefficient above its slot's cap that survives
    cancellation raises CapViolationError.  For the monomial basis of the
    capped space those columns are the matrix; for any other basis the
    coordinates come from an exact linear solve, and an image outside the
    span raises.
    """
    if not basis:
        raise ValueError("empty basis")
    p = op.p
    caps = basis[0].caps
    nrows = space_dimension(caps)
    if nrows == 0:
        raise ValueError("zero-dimensional space")

    def column(img: Image) -> dict[int, ExtScalar]:
        col = {}
        for (slot, d), x in img.items():
            if d > caps[slot]:
                raise CapViolationError(f"degree {d} in slot {slot} exceeds caps {caps}")
            col[d if slot == 0 else caps[0] + 1 + d] = x
        return col

    def matrix(columns: list[dict[int, ExtScalar]]) -> Matrix:
        return linalg.transpose(linalg.sparse(nrows, ExtScalar.zero(p), columns))

    vecs = []
    for b in basis:
        _check_p(op, b)
        vecs.append((b.upper.nz, b.lower.nz))
    imat = matrix([column(_image(op, v)) for v in vecs])
    bcols = [u | {caps[0] + 1 + d: x for d, x in l.items()} for u, l in vecs]
    if len(basis) == nrows and all(col == {c: 1} for c, col in enumerate(bcols)):
        return imat  # the monomial basis: the columns are the coordinates
    try:
        return linalg.solve(matrix(bcols), imat)
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
