"""The sphaleron, Moszkowski and Jaynes-Cummings operators.

Each model is built twice: as a raw differential operator on the matching
polynomial space, and as a quadratic expression in the q(2) generators whose
representation matrix must coincide exactly.  The bases line up as follows:

    sphaleron 43/44/50   mu basis,        realization-2 space (p-1, p-1)
    sphaleron 51         Lam/chi basis,   realization-1 space (p, p-2)
    Moszkowski           mu basis,        realization-2 space
    Jaynes-Cummings      Lam/chi basis,   third-realization carrier

Sphaleron sectors require th2 = 2p(2p+1) (cases 43, 44) or 2p(2p-1)
(cases 50, 51); this is implied by (case, p), so there is no free theta
parameter.  The eigenproblem reads (Delta + lam) f = 0, so reported mode
eigenvalues are the negated matrix eigenvalues.  The Jaynes-Cummings
rewrite exists only on the resonance surface omega - omega0 = g (p-1),
which is enforced at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial

from . import linalg
from .algebra import COMBINATIONS
from .diffop import DiffOp, Pauli, Poly, PolyPair, realization_basis, realization_basis_id
from .diffop import realization_caps, to_matrix
from .linalg import Matrix
from .rep import Basis, combination_matrices, rep_matrices
from .scalars import ExactEig, ExtScalar, RationalLike, inv_sqrt_p


class ConstraintError(ValueError):
    """Model parameters violate a structural constraint."""


class NoClosedFormError(ValueError):
    """The requested model has no closed-form spectrum here."""


class Model(Enum):
    SPHALERON_43 = "sphaleron43"
    SPHALERON_44 = "sphaleron44"
    SPHALERON_50 = "sphaleron50"
    SPHALERON_51 = "sphaleron51"
    MOSZKOWSKI = "moszkowski"
    JAYNES_CUMMINGS = "jc"


SPHALERON_MODELS = {
    Model.SPHALERON_43: 43,
    Model.SPHALERON_44: 44,
    Model.SPHALERON_50: 50,
    Model.SPHALERON_51: 51,
}


@dataclass(frozen=True)
class ModelSpec:
    model: Model
    p: int
    params: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        clean = {k: Fraction(v) for k, v in self.params.items()}
        object.__setattr__(self, "params", clean)
        if self.model in SPHALERON_MODELS:
            allowed = {"k2", "lambda"}
        elif self.model is Model.MOSZKOWSKI:
            allowed = {"c", "V"}
        else:
            allowed = {"omega", "omega0", "g"}
        unknown = set(clean) - allowed
        if unknown:
            raise ConstraintError(f"unknown parameters for {self.model.value}: {sorted(unknown)}")
        if self.model in SPHALERON_MODELS and clean.get("k2", Fraction(0)) < 0:
            raise ConstraintError("k2 must be nonnegative")
        if self.model is Model.JAYNES_CUMMINGS:
            omega = clean.get("omega", Fraction(0))
            g = clean.get("g", Fraction(0))
            omega0 = clean.get("omega0", omega - g * (self.p - 1))
            if omega - omega0 != g * (self.p - 1):
                raise ConstraintError(
                    "detuning constraint violated: omega - omega0 must equal g*(p-1)"
                )
            clean["omega0"] = omega0

    def param(self, name: str, default: RationalLike = 0) -> Fraction:
        return self.params.get(name, Fraction(default))


def model_basis(model: Model) -> Basis:
    return realization_basis_id(model_space_realization(model))


def model_space_realization(model: Model) -> int:
    if model is Model.SPHALERON_51:
        return 1
    if model is Model.JAYNES_CUMMINGS:
        return 3
    return 2


# raw differential operators ------------------------------------------------

def _sphaleron_rows(case: int, p: int, k2: Fraction) -> tuple[list, list, list, list]:
    """(upper, lower, sigma+, sigma-) coefficient lists [c0(x), c1(x)*d, c2(x)*d^2]."""
    d = 1 + k2
    xa2 = [0, 4, -4 * d, 4 * k2]  # 4 x A
    if case == 43:
        up = ([0, -k2 * (4 * p * p + 2 * p - 6)], [2, -8 * d, 14 * k2], xa2)
        low = ([-4 * d, -k2 * (4 * p * p + 2 * p - 6)], [10, -12 * d, 14 * k2], xa2)
        sp_ = ([2], [], [])
        sm = ([-6 * k2], [4 * d, -8 * k2], [])
    elif case == 44:
        up = ([-d, -k2 * (4 * p * p + 2 * p - 6)], [2, -8 * d, 14 * k2], xa2)
        low = ([-3 * d, -k2 * (4 * p * p + 2 * p - 6)], [10, -12 * d, 14 * k2], xa2)
        sp_ = ([], [], [])
        sm = ([-4 * k2], [4 * d, -8 * k2], [])
    elif case == 50:
        up = ([d, -k2 * (4 * p * p - 2 * p - 2)], [-2, -4 * d, 10 * k2], xa2)
        low = ([-d, -k2 * (4 * p * p - 2 * p - 2)], [6, -8 * d, 10 * k2], xa2)
        sp_ = ([2], [], [])
        sm = ([], [], [])
    elif case == 51:
        up = ([0, -2 * p * (2 * p - 1) * k2], [-2, 0, 2 * k2], xa2)
        low = ([-4 * d, -k2 * (4 * p * p - 2 * p - 12)], [6, -12 * d, 18 * k2], xa2)
        sp_ = ([2, -2 * d, 2 * k2], [], [])
        sm = ([], [], [])
    else:
        raise ValueError(f"unknown sphaleron case {case}")
    return up, low, sp_, sm


def _op_from_rows(p: int, rows: tuple[list, list, list, list]) -> DiffOp:
    up, low, sp_, sm = rows
    half = Fraction(1, 2)
    # upper = s0 + s3 row, lower = s0 - s3 row; DiffOp addition merges like terms
    weighted = (
        (up, ((Pauli.S0, half), (Pauli.S3, half))),
        (low, ((Pauli.S0, half), (Pauli.S3, -half))),
        (sp_, ((Pauli.SP, 1),)),
        (sm, ((Pauli.SM, 1),)),
    )
    out = DiffOp.zero(p)
    for row, parts in weighted:
        for order, coeffs in enumerate(row):
            for pauli, weight in parts:
                out = out + DiffOp.term(p, [Fraction(c) * weight for c in coeffs], order, pauli)
    return out


def raw_operator(spec: ModelSpec) -> DiffOp:
    """The model's differential operator on its polynomial space.

    For sphaleron sectors this includes the +lambda shift when the "lambda"
    parameter is set; the lambda-free part is the sector matrix operator.
    """
    p = spec.p
    T = DiffOp.term
    if spec.model in SPHALERON_MODELS:
        case = SPHALERON_MODELS[spec.model]
        op = _op_from_rows(p, _sphaleron_rows(case, p, spec.param("k2")))
        lam = spec.param("lambda")
        if lam:
            op = op + DiffOp.constant(p, lam)
        return op
    if spec.model is Model.MOSZKOWSKI:
        c = spec.param("c")
        v = spec.param("V")
        op = (
            T(p, [0, -c], 1)
            + T(p, [c * Fraction(p - 1, 2)])
            + T(p, [-c * Fraction(1, 2)], 0, Pauli.S3)
            + T(p, [0, 0, -2 * v], 2)
            + T(p, [0, v * (2 * p - 4)], 1)
            + T(p, [v * p])
            + T(p, [2 * v], 1, Pauli.SM)
            + T(p, [0, 2 * v * (p - 1)], 0, Pauli.SP)
            + T(p, [0, 0, -2 * v], 1, Pauli.SP)
        )
        return op
    # Jaynes-Cummings with a+ = x, a- = d/dx
    omega = spec.param("omega")
    g = spec.param("g")
    omega0 = spec.param("omega0")
    return (
        T(p, [0, omega], 1)
        + T(p, [omega * Fraction(1, 2)])
        + T(p, [-omega0 * Fraction(1, 2)], 0, Pauli.S3)
        + T(p, [g], 1, Pauli.SM)
        + T(p, [0, g], 0, Pauli.SP)
    )


def raw_matrix(spec: ModelSpec) -> Matrix:
    which = model_space_realization(spec.model)
    return to_matrix(raw_operator(spec), realization_basis(which, spec.p))


def sector_matrix(spec: ModelSpec) -> Matrix:
    """A sphaleron sector's matrix in carriers that make it block-triangular.

    Only sector 43 needs new ones: the kernel of W = P + xQ, which its operator
    keeps, first as (-x^(k+1), x^k) for k < p-1; then (x^k, 0) and (0, x^(p-1)).
    """
    if spec.model is not Model.SPHALERON_43:
        return raw_matrix(spec)
    p, zero, caps = spec.p, Poly.zero(spec.p), realization_caps(2, spec.p)
    x = partial(Poly.monomial, p)
    carriers = [PolyPair(-x(k + 1), x(k), caps) for k in range(p - 1)]
    carriers += [PolyPair(x(k), zero, caps) for k in range(p)] + [PolyPair(zero, x(p - 1), caps)]
    return to_matrix(raw_operator(spec), carriers)


# generator expressions -------------------------------------------------------

# An expression: (coefficient, factors) terms, the factors at most two names
# of algebra.COMBINATIONS; the matrix is the sum of coefficient * product.
Expression = tuple[tuple[ExtScalar, tuple[str, ...]], ...]


def evaluate_expression(terms: Expression, basis: Basis, p: int) -> Matrix:
    """Substitute representation matrices into the expression, exactly."""
    names = {name for _, factors in terms for name in factors}
    gens = {g for name in names for g in COMBINATIONS[name]}
    combos = combination_matrices(names, rep_matrices(gens, basis, p), p)
    products = ((c, [combos[name] for name in factors]) for c, factors in terms)
    return linalg.sum_of_products(products, 2 * p, ExtScalar.one(p))


def _E(p: int, value: RationalLike) -> ExtScalar:
    return ExtScalar.of(Fraction(value), p)


def generator_expression(spec: ModelSpec) -> Expression:
    """The model operator as a quadratic expression in the q(2) generators."""
    p = spec.p
    isp = inv_sqrt_p(p)
    sq = ExtScalar.sqrt_p(p)
    one = ExtScalar.one(p)
    if spec.model in SPHALERON_MODELS:
        k2 = spec.param("k2")
        lam = spec.param("lambda")
        d = 1 + k2
        case = SPHALERON_MODELS[spec.model]
        if case in (43, 44):
            terms: list[tuple[ExtScalar, tuple[str, ...]]] = [
                (_E(p, 2), ("e0_diff", "b+")),
                (isp * -2, ("e0_diff", "f+")),
                (_E(p, -2 * k2), ("e0_diff", "b-")),
                (isp * (2 * k2), ("e1_diff", "b-")),
                (_E(p, -d), ("e0_diff", "e0_diff")),
                (isp * 2, ("b+", "e1_diff")),
                (_E(p, Fraction(-6, p)), ("f+", "e1_diff")),
                (isp * d, ("e1_diff", "e0_diff")),
                (isp * (-2 * k2), ("e0_diff", "f-")),
                (_E(p, Fraction(2, p) * k2), ("e1_diff", "f-")),
                (isp * (4 * d), ("b+", "f-")),
                (_E(p, Fraction(-4, p) * d), ("f+", "f-")),
                (_E(p, 2 * (p + 2)), ("b+",)),
                (_E(p, -6 * k2 * p), ("b-",)),
                (_E(p, -d * (2 * p + 1)), ("e0_diff",)),
                (_E(p, -p * (p + 1) * d) + _E(p, lam), ()),
            ]
            if case == 43:
                terms += [
                    (isp * (-2 * k2 * (1 - p)), ("f-",)),
                    (isp * -(2 * (p - 1)), ("f+",)),
                    (sq * d, ("e1_diff",)),
                ]
            else:
                terms += [
                    (sq * (2 * k2), ("f-",)),
                    (sq * -2, ("f+",)),
                    (isp * (d * (p + 1)), ("e1_diff",)),
                ]
        elif case == 50:
            terms = [
                (_E(p, 2), ("e0_diff", "b+")),
                (isp * -2, ("e0_diff", "f+")),
                (_E(p, -2 * k2), ("e0_diff", "b-")),
                (isp * (2 * k2), ("e0_diff", "f-")),
                (isp * (2 * k2), ("e1_diff", "b-")),
                (_E(p, Fraction(-2, p) * k2), ("e1_diff", "f-")),
                (_E(p, -d), ("e0_diff", "e0_diff")),
                (isp * 2, ("b+", "e1_diff")),
                (_E(p, Fraction(-6, p)), ("f+", "e1_diff")),
                (isp * d, ("e1_diff", "e0_diff")),
                (_E(p, 2 * p), ("b+",)),
                (isp * (2 * (3 - p)), ("f+",)),
                (_E(p, -2 * k2 * (3 * p - 2)), ("b-",)),
                (isp * (2 * k2 * (3 * p - 2)), ("f-",)),
                (_E(p, d * (-2 * p + 1)), ("e0_diff",)),
                (isp * (-d * (1 - p)), ("e1_diff",)),
                (_E(p, -p * (p - 1) * d) + _E(p, lam), ()),
            ]
        else:  # case 51, first realization space
            terms = [
                (_E(p, 2 * k2), ("b+", "e0_diff")),
                (_E(p, -k2), ("f+", "e1_sum")),
                (isp * -1, ("b-", "e1_sum")),
                (_E(p, -2), ("e0_diff", "b-")),
                (isp * k2, ("b+", "e1_sum")),
                (_E(p, 4 * d), ("b+", "b-")),
                (one, ("f-", "e1_sum")),
                (_E(p, Fraction(d, 2)), ("e1_diff", "e1_sum")),
                (isp * Fraction(-d, 2), ("e0_diff", "e1_sum")),
                (_E(p, 2 * p - 1), ("b-",)),
                (sq * k2, ("f+",)),
                (_E(p, k2 * (-6 * p + 1)), ("b+",)),
                (sq * -1, ("f-",)),
                (_E(p, d * (2 * p + Fraction(1, 2))), ("e0_diff",)),
                (sq * -d, ("e1_sum",)),
                (sq * Fraction(-d, 2), ("e1_diff",)),
                (_E(p, (-2 * p * p + p) * d) + _E(p, lam), ()),
            ]
        return tuple(terms)
    if spec.model is Model.MOSZKOWSKI:
        c = spec.param("c")
        v = spec.param("V")
        return (
            (isp * c, ("e1_diff",)),
            (_E(p, -Fraction(c, 2)), ("e0_diff",)),
            (_E(p, v * Fraction(p * p, 2)), ()),
            (_E(p, -Fraction(v, 2)), ("e0_diff", "e0_diff")),
            (sq * v, ("e1_sum",)),
        )
    omega = spec.param("omega")
    g = spec.param("g")
    # the sigma3 remainder (omega0 - omega + g(p-1))/2 vanishes on the
    # resonance surface enforced by ModelSpec
    return (
        (_E(p, Fraction(omega, 2)), ("e0_diff",)),
        (_E(p, Fraction(p, 2) * omega), ()),
        (sq * Fraction(g, 2), ("e1_sum",)),
        (isp * Fraction(g, 2), ("e1_diff",)),
    )


def expression_matrix(spec: ModelSpec) -> Matrix:
    return evaluate_expression(generator_expression(spec), model_basis(spec.model), spec.p)


# closed-form spectra ---------------------------------------------------------

@dataclass(frozen=True)
class ClosedEig(ExactEig):
    """A closed-form eigenvalue with its label and closed-form block id."""

    label: str
    block: int


def closed_form_spectrum(spec: ModelSpec) -> list[ClosedEig]:
    """The published closed forms; exact radicals with rational radicands.

    Block k holds the paired labels; the two 1x1 blocks carry the extremal
    labels.  Raises NoClosedFormError for the sphaleron sectors.
    """
    p = spec.p
    if spec.model is Model.MOSZKOWSKI:
        c = spec.param("c")
        v = spec.param("V")
        ends = (p * v - (1 - Fraction(p, 2)) * c, p * v + (1 - Fraction(p, 2)) * c)
        pairs = [
            (-2 * v * k * (k - p) + c * (Fraction(p, 2) - k),
             v * v * p * p + c * c - 2 * (p - 2 * k) * v * c)
            for k in range(1, p)
        ]
    elif spec.model is Model.JAYNES_CUMMINGS:
        omega = spec.param("omega")
        g = spec.param("g")
        ends = (omega * p + Fraction(p + 1, 2) * g, Fraction(p - 1, 2) * g)
        pairs = [
            (omega * (p - k), g * g * (Fraction(p * p, 4) + Fraction(p, 2) + Fraction(1, 4) - k))
            for k in range(1, p)
        ]
    else:
        raise NoClosedFormError(f"{spec.model.value} has no closed-form spectrum")
    out = [ClosedEig(ends[0], 0, Fraction(0), "E0+", 0)]
    for k, (base, rad) in enumerate(pairs, start=1):
        out.append(ClosedEig(base, 1, rad, f"E{k}+", k))
        out.append(ClosedEig(base, -1, rad, f"E{k}-", k))
    out.append(ClosedEig(ends[1], 0, Fraction(0), f"E{p}+", p))
    return out


def closed_form_blocks(spec: ModelSpec) -> dict[int, tuple[int, ...]]:
    """Index sets of the Hamiltonian blocks keyed by the closed-form block id."""
    p = spec.p
    if spec.model is Model.MOSZKOWSKI:
        # mu ordering: singletons mu_0 and mu_{2p-1}; pairs {mu_k, mu_{p+k-1}}
        last, shift = 2 * p - 1, p - 1
    elif spec.model is Model.JAYNES_CUMMINGS:
        # Lam/chi ordering: Lam_k at k, chi_k at (p+1) + (k-1)
        last, shift = p, p
    else:
        raise NoClosedFormError(f"{spec.model.value} has no closed-form blocks")
    blocks = {0: (0,), p: (last,)}
    for k in range(1, p):
        blocks[k] = (k, k + shift)
    return blocks
