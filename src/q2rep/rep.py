"""The 2p-dimensional modules V_p in four concrete bases.

V_p arises as the quotient of an infinite module (spanned by v_k = (b+)^k v_0
and w_k = (b+)^{k-1} f+ v_0) by the submodule generated by the primitive
vector v_p - sqrt(p) w_p.  Working in the quotient means: indices above p
vanish and v_p is rewritten as sqrt(p) w_p, so the surviving index-p content
sits on w_p alone.

Bases and their fixed orderings:

    VW          v_0..v_{p-1}, w_1..w_{p-1}, v_p + sqrt(p) w_p
    LAMBDA_CHI  Lam_0..Lam_p, chi_1..chi_{p-1}
    MU          mu_0..mu_{2p-1}, defined from LAMBDA_CHI by one exact matrix
                C (`_mu_change`); its action and expansion are those of
                LAMBDA_CHI carried over by C
    THIRD       same abstract vectors as LAMBDA_CHI (only the polynomial
                realization differs), so it shares LAMBDA_CHI's matrices

The V_p action is written out on VW (`act_vw`) and on LAMBDA_CHI
(`_lc_action`) only; realization 2 in `diffop` checks the MU matrices
independently of C.  All matrices are exact over Q[s]/(s^2 - p) and column
c holds the image of basis vector c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import linalg
from .algebra import (
    B_MINUS,
    B_PLUS,
    E00_0,
    E00_1,
    E11_0,
    E11_1,
    F_MINUS,
    F_PLUS,
    GeneratorId,
    SuperElement,
)
from .linalg import Matrix
from .scalars import ExtScalar, inv_sqrt_p


class Basis(Enum):
    VW = "vw"
    LAMBDA_CHI = "lambda_chi"
    MU = "mu"
    THIRD = "third"


def basis_labels(basis: Basis, p: int) -> list[str]:
    if basis is Basis.VW:
        return (
            [f"v{k}" for k in range(p)]
            + [f"w{k}" for k in range(1, p)]
            + [f"v{p}+sqrt(p)w{p}"]
        )
    if basis in (Basis.LAMBDA_CHI, Basis.THIRD):
        return [f"Lam{k}" for k in range(p + 1)] + [f"chi{l}" for l in range(1, p)]
    return [f"mu{k}" for k in range(2 * p)]


@dataclass(frozen=True)
class FormalVW:
    """An element of the infinite module: finite sums over v_k and w_k."""

    p: int
    v: dict[int, ExtScalar] = field(default_factory=dict)
    w: dict[int, ExtScalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", {k: c for k, c in self.v.items() if c})
        object.__setattr__(self, "w", {k: c for k, c in self.w.items() if c})

    def __bool__(self) -> bool:
        return bool(self.v) or bool(self.w)


def _s(p: int) -> ExtScalar:
    return ExtScalar.sqrt_p(p)


def act_vw(g: GeneratorId, x: FormalVW, p: int) -> FormalVW:
    """Linear extension of the eight generator actions on the infinite module."""
    v_out: dict[int, ExtScalar] = {}
    w_out: dict[int, ExtScalar] = {}

    def put(target: dict[int, ExtScalar], k: int, c: ExtScalar) -> None:
        if not c or k < 0:
            return
        target[k] = target.get(k, ExtScalar.zero(p)) + c

    s = _s(p)
    for k, c in x.v.items():
        if g == B_PLUS:
            put(v_out, k + 1, c)
        elif g == B_MINUS:
            put(v_out, k - 1, c * (k * (p - k + 1)))
        elif g == F_PLUS:
            put(w_out, k + 1, c)
        elif g == F_MINUS:
            put(v_out, k - 1, c * s * k)
            put(w_out, k - 1, c * (-k * (k - 1)))
        elif g == E00_0:
            put(v_out, k, c * (p - k))
        elif g == E11_0:
            put(v_out, k, c * k)
        elif g == E00_1:
            put(v_out, k, c * s)
            put(w_out, k, c * (-k))
        elif g == E11_1:
            put(w_out, k, c * k)
        else:
            raise KeyError(g)
    for k, c in x.w.items():
        if g == B_PLUS:
            put(w_out, k + 1, c)
        elif g == B_MINUS:
            put(v_out, k - 1, c * s)
            put(w_out, k - 1, c * ((k - 1) * (p - k)))
        elif g == F_PLUS:
            pass
        elif g == F_MINUS:
            put(v_out, k - 1, c * p)
            put(w_out, k - 1, -(c * s) * (k - 1))
        elif g == E00_0:
            put(w_out, k, c * (p - k))
        elif g == E11_0:
            put(w_out, k, c * k)
        elif g == E00_1:
            put(v_out, k, c)
            put(w_out, k, -(c * s))
        elif g == E11_1:
            put(v_out, k, c)
    return FormalVW(p, v_out, w_out)


def reduce_quotient(x: FormalVW, p: int) -> FormalVW:
    """Canonical coset representative in V_p.

    All v_m, w_m with m >= p + 1 lie in the submodule and are dropped; v_p
    is rewritten as sqrt(p) w_p so level-p content is carried by w_p alone.
    """
    v = {k: c for k, c in x.v.items() if k <= p}
    w = {k: c for k, c in x.w.items() if k <= p}
    if p in v:
        c = v.pop(p)
        w[p] = w.get(p, ExtScalar.zero(p)) + c * _s(p)
    return FormalVW(p, v, w)


def _rvw_index(kind: str, k: int, p: int) -> int:
    # reduced coordinates: v_0..v_{p-1}, w_1..w_p
    if kind == "v":
        if not 0 <= k <= p - 1:
            raise IndexError(f"v_{k} outside reduced window for p={p}")
        return k
    if not 1 <= k <= p:
        raise IndexError(f"w_{k} outside reduced window for p={p}")
    return p + k - 1


def _rvw_coords(x: FormalVW, p: int) -> dict[int, ExtScalar]:
    """The nonzero reduced coordinates of x, by index."""
    out = {_rvw_index("v", k, p): c for k, c in x.v.items()}
    out.update((_rvw_index("w", k, p), c) for k, c in x.w.items())
    return out


@lru_cache(maxsize=None)
def expansion_in_rvw(basis: Basis, p: int) -> Matrix:
    """Columns express the basis vectors in reduced VW coordinates."""
    n = 2 * p
    cols: list[dict[int, ExtScalar]] = []

    def lam(k: int) -> FormalVW:
        if k < p:
            return FormalVW(p, {k: ExtScalar.of(Fraction(factorial(p - k), factorial(p)), p)}, {})
        # Lam_p = (v_p + sqrt(p) w_p) / (2 p!) -> sqrt(p)/p! * w_p after reduction
        return FormalVW(p, {}, {p: _s(p) * Fraction(1, factorial(p))})

    def chi(l: int) -> FormalVW:
        c = ExtScalar.of(Fraction(factorial(p - l - 1), factorial(p)), p)
        return FormalVW(p, {l: c}, {l: -(c * _s(p))})

    if basis is Basis.VW:
        for k in range(p):
            cols.append(_rvw_coords(FormalVW(p, {k: ExtScalar.one(p)}, {}), p))
        for k in range(1, p):
            cols.append(_rvw_coords(FormalVW(p, {}, {k: ExtScalar.one(p)}), p))
        # v_p + sqrt(p) w_p reduces to 2 sqrt(p) w_p
        cols.append(_rvw_coords(FormalVW(p, {}, {p: _s(p) * 2}), p))
    elif basis in (Basis.LAMBDA_CHI, Basis.THIRD):
        for k in range(p + 1):
            cols.append(_rvw_coords(lam(k), p))
        for l in range(1, p):
            cols.append(_rvw_coords(chi(l), p))
    elif basis is Basis.MU:
        return linalg.matmul(expansion_in_rvw(Basis.LAMBDA_CHI, p), _mu_change(p)[0])
    else:
        raise KeyError(basis)
    return linalg.transpose(linalg.sparse(n, ExtScalar.zero(p), cols))


def _mu_change(p: int) -> tuple[Matrix, Matrix]:
    """(C, C^-1): the columns of C are mu_0..mu_{2p-1} in LAMBDA_CHI coordinates.

    mu_0 = Lam_p and mu_{2p-1} = Lam_0.  For 1 <= j <= p-1 the pair
    mu_{p-j} = Lam_j - (p-j) chi_j and mu_{2p-1-j} = Lam_j + j chi_j is a
    2x2 block of determinant p, so C^-1 has the closed form
    Lam_j = (j mu_{p-j} + (p-j) mu_{2p-1-j})/p, chi_j = (mu_{2p-1-j} - mu_{p-j})/p.
    """
    n = 2 * p
    one = ExtScalar.one(p)
    mu: list[dict[int, ExtScalar]] = [{} for _ in range(n)]  # columns of C
    lc: list[dict[int, ExtScalar]] = [{} for _ in range(n)]  # columns of C^-1
    mu[0], lc[p] = {p: one}, {0: one}
    mu[n - 1], lc[0] = {0: one}, {n - 1: one}
    for j in range(1, p):
        a, b, chi = p - j, n - 1 - j, p + j
        mu[a] = {j: one, chi: one * (j - p)}
        mu[b] = {j: one, chi: one * j}
        lc[j] = {a: one * Fraction(j, p), b: one * Fraction(p - j, p)}
        lc[chi] = {a: one * Fraction(-1, p), b: one * Fraction(1, p)}
    zero = ExtScalar.zero(p)
    return tuple(linalg.transpose(linalg.sparse(n, zero, cols)) for cols in (mu, lc))


def change_of_basis(frm: Basis, to: Basis, p: int) -> Matrix:
    """T with T @ (coordinates in `frm`) = coordinates in `to`."""
    if frm == to:
        return linalg.ext_identity(2 * p, p)
    return linalg.matmul(linalg.ext_invert(expansion_in_rvw(to, p), p), expansion_in_rvw(frm, p))


# direct action tables ------------------------------------------------------

def _lc_action(g: GeneratorId, kind: str, k: int, p: int) -> list[tuple[str, int, ExtScalar]]:
    """Images of Lam_k / chi_l under g as (kind, index, coefficient) terms."""
    isp = inv_sqrt_p(p)
    one = ExtScalar.one(p)
    if kind == "L":
        terms = {
            B_MINUS: [("L", k - 1, one * k)],
            B_PLUS: [("L", k + 1, one * (p - k))],
            F_MINUS: [("L", k - 1, isp * k), ("C", k - 1, isp * (k * (k - 1)))],
            F_PLUS: [
                ("L", k + 1, isp * (p - k)),
                ("C", k + 1, -(isp * ((p - k) * (p - k - 1)))),
            ],
            E00_0: [("L", k, one * (p - k))],
            E11_0: [("L", k, one * k)],
            E00_1: [("L", k, isp * (p - k)), ("C", k, isp * (k * (p - k)))],
            E11_1: [("L", k, isp * k), ("C", k, -(isp * (k * (p - k))))],
        }[g]
    else:
        terms = {
            B_MINUS: [("C", k - 1, one * (k - 1))],
            B_PLUS: [("C", k + 1, one * (p - k - 1))],
            F_MINUS: [("L", k - 1, -isp), ("C", k - 1, -(isp * (k - 1)))],
            F_PLUS: [("L", k + 1, isp), ("C", k + 1, -(isp * (p - k - 1)))],
            E00_0: [("C", k, one * (p - k))],
            E11_0: [("C", k, one * k)],
            E00_1: [("L", k, isp), ("C", k, -(isp * (p - k)))],
            E11_1: [("L", k, -isp), ("C", k, -(isp * k))],
        }[g]
    out = []
    for tkind, idx, c in terms:
        if not c:
            continue
        in_range = (0 <= idx <= p) if tkind == "L" else (1 <= idx <= p - 1)
        if not in_range:
            raise AssertionError(
                f"nonzero image outside basis: {g.name} on {kind}{k} -> {tkind}{idx}"
            )
        out.append((tkind, idx, c))
    return out


@lru_cache(maxsize=None)
def rep_matrix(g: GeneratorId, basis: Basis, p: int) -> Matrix:
    """Exact 2p x 2p matrix of the generator in the requested ordered basis."""
    if basis is Basis.THIRD:
        return rep_matrix(g, Basis.LAMBDA_CHI, p)
    if basis is Basis.MU:
        c, c_inv = _mu_change(p)
        return linalg.matmul(c_inv, linalg.matmul(rep_matrix(g, Basis.LAMBDA_CHI, p), c))
    n = 2 * p
    cols: list[dict[int, ExtScalar]] = [{} for _ in range(n)]
    if basis is Basis.LAMBDA_CHI:
        for col in range(n):
            kind, idx = ("L", col) if col <= p else ("C", col - p)
            for tkind, tidx, c in _lc_action(g, kind, idx, p):
                cols[col][tidx if tkind == "L" else p + tidx] = c
    elif basis is Basis.VW:
        for col, coords in enumerate(linalg.transpose(expansion_in_rvw(Basis.VW, p))):
            # reduced coordinates: v_k at k, w_k at p + k - 1
            vec = FormalVW(
                p,
                {i: c for i, c in coords.nz.items() if i < p},
                {i - p + 1: c for i, c in coords.nz.items() if i >= p},
            )
            image = _rvw_coords(reduce_quotient(act_vw(g, vec, p), p), p)
            # re-express in the VW basis: w_p content sits on the last vector,
            # which is also the index of w_p in reduced coordinates
            wp = image.get(_rvw_index("w", p, p))
            if wp:
                image[n - 1] = wp * inv_sqrt_p(p) * Fraction(1, 2)
            cols[col] = image
    else:
        raise KeyError(basis)
    return linalg.transpose(linalg.sparse(n, ExtScalar.zero(p), cols))


def rep_of_element(x: SuperElement, basis: Basis, p: int) -> Matrix:
    """Matrix of a general algebra element (linear combination of generators)."""
    terms = ((c, [rep_matrix(g, basis, p)]) for g, c in x.coeffs.items())
    return linalg.sum_of_products(terms, 2 * p, ExtScalar.one(p))


# metric ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gram_rvw(p: int) -> Matrix:
    """Gram matrix of the reduced coordinates v_0..v_{p-1}, w_1..w_p."""
    n = 2 * p
    rows: list[dict[int, ExtScalar]] = [{} for _ in range(n)]
    for k in range(p):
        rows[k][k] = ExtScalar.of(
            Fraction(factorial(k) * factorial(p), factorial(p - k)), p
        )
    for k in range(1, p + 1):
        i = _rvw_index("w", k, p)
        rows[i][i] = ExtScalar.of(
            Fraction(factorial(k - 1) * factorial(p), factorial(p - k)), p
        )
    for k in range(1, p):
        i, j = _rvw_index("v", k, p), _rvw_index("w", k, p)
        c = ExtScalar.of(Fraction(factorial(k) * factorial(p), factorial(p - k)), p) * inv_sqrt_p(p)
        rows[i][j] = c
        rows[j][i] = c
    return linalg.sparse(n, ExtScalar.zero(p), rows)


def gram_matrix(basis: Basis, p: int) -> Matrix:
    """Exact Gram matrix of the requested basis (congruence from closed forms)."""
    e = expansion_in_rvw(basis, p)
    return linalg.matmul(linalg.transpose(e), linalg.matmul(_gram_rvw(p), e))


def weights_lambda_chi(p: int) -> list[int]:
    """Eigenvalues of e00_0 - e11_0 on the LAMBDA_CHI basis, in basis order."""
    return [p - 2 * k for k in range(p + 1)] + [p - 2 * l for l in range(1, p)]
