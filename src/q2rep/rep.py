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
                C (`_mu_change`)
    THIRD       same abstract vectors as LAMBDA_CHI (only the polynomial
                realization differs), so its matrices are LAMBDA_CHI's

The V_p action is written out once, on LAMBDA_CHI (`_LAM_TERMS`,
`_CHI_TERMS`).  VW and MU are each one exact change of basis of it, T
(`_vw_change`) and C, with matrices T^-1 M T and C^-1 M C.  Two checks see
T and C independently: Gram adjointness on VW, whose Gram matrix comes
from the reduced coordinates and not from T, and realization 2 in `diffop`
on MU.  All matrices are exact over Q[s]/(s^2 - p) and column c holds the
image of basis vector c.  Nothing is memoized: each call builds its
matrices anew, and a caller that uses a matrix more than once builds it
once and keeps it.

The matrices are graded by sqrt(p).  Give each basis vector a degree:
1 for w_1..w_{p-1} in VW and 0 for every other vector of every basis
(`degrees`).  Then entry (i, j) of an even generator's matrix is a
rational times s^(delta_i + delta_j mod 2), and an odd generator's carries
one more factor s.  Each basis is built through this grading on ints:

- the action tables are integer polynomials in (k, p); they give an
  integer matrix I_g with M_g = (s/p)^pi_g I_g on LAMBDA_CHI, pi_g the
  parity of g;
- each change is an integer table (X, Y, D) with Y = D X^-1: C itself,
  T_Q with T = T_Q S for S = diag(s^delta_i), and the identity for
  LAMBDA_CHI and THIRD;
- one integer product R_g = Y I_g X per generator; the matrix is
  S^-1 X^-1 M_g X S = (s/p)^pi_g S^-1 R_g S / D.

(D, {g: R_g}) is the basis's graded form.  `graded_matrices` hands it out
in lowest terms, and `verify` checks the bracket relations on it, since
s^pi_g S M_g S^-1 = R_g / D.  `ext_matrices` views a graded form over
Q(sqrt(p)), one ExtScalar per nonzero entry R_ij/(D p^pi_g)
s^(pi_g + delta_j - delta_i), and `rep_matrices` views `graded_matrices`,
so every caller reads the one lowest-terms form.  A test asserts the
grading of every generator in every basis at p = 1..64; taking s^1 as 1
in the view makes it fail.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from fractions import Fraction
from math import factorial, gcd

from . import linalg
from .algebra import (
    B_MINUS,
    B_PLUS,
    COMBINATIONS,
    E00_0,
    E00_1,
    E11_0,
    E11_1,
    F_MINUS,
    F_PLUS,
    GeneratorId,
    SuperElement,
)
from .linalg import Matrix, Row
from .scalars import ExtScalar, inv_sqrt_p


class Basis(Enum):
    VW = "vw"
    LAMBDA_CHI = "lambda_chi"
    MU = "mu"
    THIRD = "third"


def expansion_in_rvw(basis: Basis, p: int) -> Matrix:
    """Columns express the basis vectors in reduced coordinates v_0..v_{p-1}, w_1..w_p."""
    n = 2 * p
    s = ExtScalar.sqrt_p(p)
    if basis is Basis.VW:
        # the identity, except that v_p + sqrt(p) w_p reduces to 2 sqrt(p) w_p
        cols = [{k: ExtScalar.one(p)} for k in range(n - 1)] + [{n - 1: s * 2}]
    elif basis in (Basis.LAMBDA_CHI, Basis.THIRD):
        # Lam_k = (p-k)!/p! v_k; Lam_p = (v_p + sqrt(p) w_p)/(2 p!) reduces to
        # sqrt(p)/p! w_p; chi_l = (p-l-1)!/p! (v_l - sqrt(p) w_l), w_l at p + l - 1
        cols = [{k: ExtScalar.of(Fraction(factorial(p - k), factorial(p)), p)} for k in range(p)]
        cols.append({n - 1: s * Fraction(1, factorial(p))})
        for l in range(1, p):
            c = ExtScalar.of(Fraction(factorial(p - l - 1), factorial(p)), p)
            cols.append({l: c, p + l - 1: -(c * s)})
    elif basis is Basis.MU:
        c = linalg.sparse(n, 0, _mu_change(p)[0])
        return linalg.matmul(expansion_in_rvw(Basis.LAMBDA_CHI, p), c)
    else:
        raise KeyError(basis)
    return linalg.transpose(linalg.sparse(n, ExtScalar.zero(p), cols))


# The changes of basis are integer tables (X, Y, D): X and Y = D X^-1 as
# rows of {column: int} dicts of nonzeros, for one integer D > 0.
IntRows = list[dict[int, int]]


def _rows(cols: list[dict[int, int]]) -> IntRows:
    """The rows of the square matrix with these columns."""
    rows: IntRows = [{} for _ in cols]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _mu_change(p: int) -> tuple[IntRows, IntRows, int]:
    """(C, p C^-1, p): the columns of C are mu_0..mu_{2p-1} in LAMBDA_CHI coordinates.

    mu_0 = Lam_p and mu_{2p-1} = Lam_0.  For 1 <= j <= p-1 the pair
    mu_{p-j} = Lam_j - (p-j) chi_j and mu_{2p-1-j} = Lam_j + j chi_j is a
    2x2 block of determinant p, so p C^-1 has the closed form
    p Lam_j = j mu_{p-j} + (p-j) mu_{2p-1-j}, p chi_j = mu_{2p-1-j} - mu_{p-j}.
    """
    n = 2 * p
    mu: list[dict[int, int]] = [{} for _ in range(n)]  # columns of C
    lc: list[dict[int, int]] = [{} for _ in range(n)]  # columns of p C^-1
    mu[0], lc[p] = {p: 1}, {0: p}
    mu[n - 1], lc[0] = {0: 1}, {n - 1: p}
    for j in range(1, p):
        a, b, chi = p - j, n - 1 - j, p + j
        mu[a], mu[b] = {j: 1, chi: j - p}, {j: 1, chi: j}
        lc[j], lc[chi] = {a: j, b: p - j}, {a: -1, b: 1}
    return _rows(mu), _rows(lc), p


def _vw_change(p: int) -> tuple[IntRows, IntRows, int]:
    """(T_Q, 2 p! T_Q^-1, 2 p!) with T = T_Q S, S = diag(s^delta_i) of `degrees`.

    The columns of T are the VW basis vectors in LAMBDA_CHI coordinates:
    v_k = p!/(p-k)! Lam_k, w_l = sqrt(p) (p-1)! (Lam_l/(p-l)! - chi_l/(p-l-1)!)
    and v_p + sqrt(p) w_p = 2 p! Lam_p, so T^-1 has the closed form
    Lam_k = (p-k)!/p! v_k, Lam_p = (v_p + sqrt(p) w_p)/(2 p!) and
    chi_l = (p-l-1)!/p! (v_l - sqrt(p) w_l).  S takes the sqrt(p) of w_l
    out of T and into T^-1 = S^-1 T_Q^-1, where its s^2 = p is rational.
    """
    n, fp = 2 * p, factorial(p)
    vw: list[dict[int, int]] = [{} for _ in range(n)]  # columns of T_Q
    lc: list[dict[int, int]] = [{} for _ in range(n)]  # columns of 2 p! T_Q^-1
    for k in range(p):
        vw[k], lc[k] = {k: fp // factorial(p - k)}, {k: 2 * factorial(p - k)}
    vw[n - 1], lc[p] = {p: 2 * fp}, {n - 1: 1}
    for l in range(1, p):
        w, chi, f = p + l - 1, p + l, factorial(p - l - 1)
        vw[w] = {l: fp // (p * (p - l) * f), chi: -(fp // (p * f))}
        lc[chi] = {l: 2 * f, w: -2 * p * f}
    return _rows(vw), _rows(lc), 2 * fp


def change_of_basis(frm: Basis, to: Basis, p: int) -> Matrix:
    """T with T @ (coordinates in `frm`) = coordinates in `to`: one exact solve."""
    return linalg.solve(expansion_in_rvw(to, p), expansion_in_rvw(frm, p))


# direct action tables ------------------------------------------------------

# The images of Lam_k and of chi_k under each generator: (k, p) -> its
# (kind, index, coefficient) terms, integer polynomials in k and p.  They
# give the integer matrix I_g with M_g = (s/p)^parity I_g on LAMBDA_CHI:
# an odd generator's coefficients stand for themselves times 1/sqrt(p).
_LAM_TERMS = {
    B_MINUS: lambda k, p: [("L", k - 1, k)],
    B_PLUS: lambda k, p: [("L", k + 1, p - k)],
    F_MINUS: lambda k, p: [("L", k - 1, k), ("C", k - 1, k * (k - 1))],
    F_PLUS: lambda k, p: [("L", k + 1, p - k), ("C", k + 1, -(p - k) * (p - k - 1))],
    E00_0: lambda k, p: [("L", k, p - k)],
    E11_0: lambda k, p: [("L", k, k)],
    E00_1: lambda k, p: [("L", k, p - k), ("C", k, k * (p - k))],
    E11_1: lambda k, p: [("L", k, k), ("C", k, -k * (p - k))],
}
_CHI_TERMS = {
    B_MINUS: lambda k, p: [("C", k - 1, k - 1)],
    B_PLUS: lambda k, p: [("C", k + 1, p - k - 1)],
    F_MINUS: lambda k, p: [("L", k - 1, -1), ("C", k - 1, -(k - 1))],
    F_PLUS: lambda k, p: [("L", k + 1, 1), ("C", k + 1, -(p - k - 1))],
    E00_0: lambda k, p: [("C", k, p - k)],
    E11_0: lambda k, p: [("C", k, k)],
    E00_1: lambda k, p: [("L", k, 1), ("C", k, -(p - k))],
    E11_1: lambda k, p: [("L", k, -1), ("C", k, -k)],
}


def _lc_action(g: GeneratorId, kind: str, k: int, p: int) -> list[tuple[str, int, int]]:
    """Images of Lam_k / chi_l under g as (kind, index, coefficient) terms of I_g."""
    out = []
    for tkind, idx, c in (_LAM_TERMS if kind == "L" else _CHI_TERMS)[g](k, p):
        if not c:
            continue
        in_range = (0 <= idx <= p) if tkind == "L" else (1 <= idx <= p - 1)
        if not in_range:
            raise AssertionError(
                f"nonzero image outside basis: {g.name} on {kind}{k} -> {tkind}{idx}"
            )
        out.append((tkind, idx, c))
    return out


def _lc_rows(g: GeneratorId, p: int) -> IntRows:
    """The rows of I_g as dicts of nonzeros."""
    rows: IntRows = [{} for _ in range(2 * p)]
    for col in range(2 * p):
        kind, idx = ("L", col) if col <= p else ("C", col - p)
        for tkind, tidx, c in _lc_action(g, kind, idx, p):
            rows[tidx if tkind == "L" else p + tidx][col] = c
    return rows


# A graded form (D, {g: R_g}) of a basis: integer rows R_g and one integer
# D > 0 with M_g = (s/p)^pi_g S^-1 R_g S / D (module docstring).
Graded = tuple[int, dict[GeneratorId, IntRows]]


def graded_matrices(gens: Iterable[GeneratorId], basis: Basis, p: int) -> Graded:
    """The graded form (D, {g: Y I_g X}) of the generators, in lowest terms.

    One product per generator for the basis's change (X, Y, D); the gcd of D
    and of every entry of every R_g is then divided out, which keeps the
    ints small: VW's D = 2 p! drops to 2p.
    """
    if basis is Basis.VW:
        x, y, den = _vw_change(p)
    elif basis is Basis.MU:
        x, y, den = _mu_change(p)
    elif basis in (Basis.LAMBDA_CHI, Basis.THIRD):
        return 1, {g: _lc_rows(g, p) for g in gens}
    else:
        raise KeyError(basis)
    rows = {g: linalg.product_rows(y, linalg.product_rows(_lc_rows(g, p), x)) for g in gens}
    c = gcd(den, *(v for r in rows.values() for row in r for v in row.values()))
    if c > 1:
        den, rows = den // c, {g: [{j: v // c for j, v in row.items()} for row in r]
                               for g, r in rows.items()}
    return den, rows


def ext_matrices(graded: Graded, basis: Basis, p: int) -> dict[GeneratorId, Matrix]:
    """The exact matrices M_g of a graded form of `basis`, one ExtScalar per nonzero entry."""
    den, rows = graded
    n, deg, zero, new = 2 * p, degrees(basis, p), ExtScalar.zero(p), ExtScalar.from_triple
    # s^e = (a + b s)/d for e = -1..2, since s^-1 = s/p and s^2 = p
    powers = {-1: (0, 1, p), 0: (1, 0, 1), 1: (0, 1, 1), 2: (p, 0, 1)}
    out = {}
    for g, r in rows.items():
        pi = g.parity
        d = den * p**pi
        mat = []
        for i, acc in enumerate(r):
            entries = {}
            for j in sorted(acc):
                a, b, q = powers[pi + deg[j] - deg[i]]
                v = acc[j]
                entries[j] = new(v * a, v * b, d * q, p)
            mat.append(Row(n, zero, entries))
        out[g] = tuple(mat)
    return out


def rep_matrices(gens: Iterable[GeneratorId], basis: Basis, p: int) -> dict[GeneratorId, Matrix]:
    """Exact 2p x 2p matrices of the generators in the requested ordered basis."""
    return ext_matrices(graded_matrices(gens, basis, p), basis, p)


def rep_matrix(g: GeneratorId, basis: Basis, p: int) -> Matrix:
    """Exact 2p x 2p matrix of one generator in the requested ordered basis."""
    return rep_matrices([g], basis, p)[g]


def rep_of_element(x: SuperElement, basis: Basis, p: int) -> Matrix:
    """Matrix of a general algebra element (linear combination of generators)."""
    mats = rep_matrices(x.coeffs, basis, p)
    terms = ((c, [mats[g]]) for g, c in x.coeffs.items())
    return linalg.sum_of_products(terms, 2 * p, ExtScalar.one(p))


def combination_matrices(
    names: set[str], mats: dict[GeneratorId, Matrix], p: int
) -> dict[str, Matrix]:
    """Matrices of the named algebra.COMBINATIONS from the generator matrices `mats`.

    `mats` holds, in one basis, every generator that the named combinations use.
    """
    terms = {name: [(c, [mats[g]]) for g, c in COMBINATIONS[name].items()] for name in names}
    return {name: linalg.sum_of_products(t, 2 * p, ExtScalar.one(p)) for name, t in terms.items()}


# sqrt(p) grading ------------------------------------------------------------

def degrees(basis: Basis, p: int) -> list[int]:
    """The sqrt(p) degree of each basis vector: 1 for w_1..w_{p-1} in VW, else 0."""
    if basis is Basis.VW:
        return [0] * p + [1] * (p - 1) + [0]
    return [0] * (2 * p)


# metric ---------------------------------------------------------------------

def _gram_rvw(p: int) -> Matrix:
    """Gram matrix of the reduced coordinates v_0..v_{p-1}, w_1..w_p."""
    n = 2 * p
    rows: list[dict[int, ExtScalar]] = [{} for _ in range(n)]
    for k in range(p):
        rows[k][k] = ExtScalar.of(
            Fraction(factorial(k) * factorial(p), factorial(p - k)), p
        )
    for k in range(1, p + 1):
        i = p + k - 1  # w_k
        rows[i][i] = ExtScalar.of(
            Fraction(factorial(k - 1) * factorial(p), factorial(p - k)), p
        )
    for k in range(1, p):
        i, j = k, p + k - 1  # v_k, w_k
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
