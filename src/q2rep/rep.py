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

The V_p action is written out once, on LAMBDA_CHI (`_lc_action`).  VW and
MU are each one exact change of basis of it, T (`_vw_change`) and C, with
matrices T^-1 M T and C^-1 M C.  Two checks see T and C independently:
Gram adjointness on VW, whose Gram matrix comes from the reduced
coordinates and not from T, and realization 2 in `diffop` on MU.  All
matrices are exact over Q[s]/(s^2 - p) and column c holds the image of
basis vector c.  `rep_matrices` builds several generators' matrices in one
basis from one T or C.  Nothing is memoized: each call builds its matrices
anew, and a caller that uses a matrix more than once builds it once and
keeps it.

The matrices are graded by sqrt(p).  Give each basis vector a degree:
1 for w_1..w_{p-1} in VW and 0 for every other vector of every basis
(`degrees`).  Then entry (i, j) of an even generator's matrix is a
rational times s^(delta_i + delta_j mod 2), and an odd generator's carries
one more factor s.  `integer_rows` uses this to rescale one basis's eight
matrices into integer rows with the same bracket relations, which `verify`
checks.  A test asserts the grading for every generator in every basis at
p = 1..64; turning the 1/sqrt(p) of one `_LAM_TERMS` coefficient into 1
makes it fail.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from fractions import Fraction
from math import factorial, lcm

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
from .linalg import Matrix
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


def _vw_change(p: int) -> tuple[Matrix, Matrix]:
    """(T, T^-1): the columns of T are the VW basis vectors in LAMBDA_CHI coordinates.

    v_k = p!/(p-k)! Lam_k, w_l = sqrt(p) (p-1)! (Lam_l/(p-l)! - chi_l/(p-l-1)!)
    and v_p + sqrt(p) w_p = 2 p! Lam_p, so T^-1 has the closed form
    Lam_k = (p-k)!/p! v_k, Lam_p = (v_p + sqrt(p) w_p)/(2 p!) and
    chi_l = (p-l-1)!/p! (v_l - sqrt(p) w_l).
    """
    n, s, fp = 2 * p, ExtScalar.sqrt_p(p), factorial(p)
    vw: list[dict[int, ExtScalar]] = [{} for _ in range(n)]  # columns of T
    lc: list[dict[int, ExtScalar]] = [{} for _ in range(n)]  # columns of T^-1
    for k in range(p):
        vw[k] = {k: ExtScalar.of(Fraction(fp, factorial(p - k)), p)}
        lc[k] = {k: ExtScalar.of(Fraction(factorial(p - k), fp), p)}
    vw[n - 1], lc[p] = {p: ExtScalar.of(2 * fp, p)}, {n - 1: ExtScalar.of(Fraction(1, 2 * fp), p)}
    for l in range(1, p):
        w, chi = p + l - 1, p + l
        vw[w] = {l: s * Fraction(factorial(p - 1), factorial(p - l)),
                 chi: -(s * Fraction(factorial(p - 1), factorial(p - l - 1)))}
        c = ExtScalar.of(Fraction(factorial(p - l - 1), fp), p)
        lc[chi] = {l: c, w: -(c * s)}
    zero = ExtScalar.zero(p)
    return tuple(linalg.transpose(linalg.sparse(n, zero, cols)) for cols in (vw, lc))


def change_of_basis(frm: Basis, to: Basis, p: int) -> Matrix:
    """T with T @ (coordinates in `frm`) = coordinates in `to`."""
    if frm == to:
        return linalg.ext_identity(2 * p, p)
    return linalg.matmul(linalg.ext_invert(expansion_in_rvw(to, p), p), expansion_in_rvw(frm, p))


# direct action tables ------------------------------------------------------

# The images of Lam_k and of chi_k under each generator: (k, p, one, isp) ->
# its (kind, index, coefficient) terms, with one = 1 and isp = 1/sqrt(p).
_LAM_TERMS = {
    B_MINUS: lambda k, p, one, isp: [("L", k - 1, one * k)],
    B_PLUS: lambda k, p, one, isp: [("L", k + 1, one * (p - k))],
    F_MINUS: lambda k, p, one, isp: [("L", k - 1, isp * k), ("C", k - 1, isp * (k * (k - 1)))],
    F_PLUS: lambda k, p, one, isp: [
        ("L", k + 1, isp * (p - k)),
        ("C", k + 1, -(isp * ((p - k) * (p - k - 1)))),
    ],
    E00_0: lambda k, p, one, isp: [("L", k, one * (p - k))],
    E11_0: lambda k, p, one, isp: [("L", k, one * k)],
    E00_1: lambda k, p, one, isp: [("L", k, isp * (p - k)), ("C", k, isp * (k * (p - k)))],
    E11_1: lambda k, p, one, isp: [("L", k, isp * k), ("C", k, -(isp * (k * (p - k))))],
}
_CHI_TERMS = {
    B_MINUS: lambda k, p, one, isp: [("C", k - 1, one * (k - 1))],
    B_PLUS: lambda k, p, one, isp: [("C", k + 1, one * (p - k - 1))],
    F_MINUS: lambda k, p, one, isp: [("L", k - 1, -isp), ("C", k - 1, -(isp * (k - 1)))],
    F_PLUS: lambda k, p, one, isp: [("L", k + 1, isp), ("C", k + 1, -(isp * (p - k - 1)))],
    E00_0: lambda k, p, one, isp: [("C", k, one * (p - k))],
    E11_0: lambda k, p, one, isp: [("C", k, one * k)],
    E00_1: lambda k, p, one, isp: [("L", k, isp), ("C", k, -(isp * (p - k)))],
    E11_1: lambda k, p, one, isp: [("L", k, -isp), ("C", k, -(isp * k))],
}


def _lc_action(
    g: GeneratorId, kind: str, k: int, p: int, one: ExtScalar, isp: ExtScalar
) -> list[tuple[str, int, ExtScalar]]:
    """Images of Lam_k / chi_l under g as (kind, index, coefficient) terms.

    `one` is 1 and `isp` is 1/sqrt(p), made once per matrix by the caller.
    """
    terms = (_LAM_TERMS if kind == "L" else _CHI_TERMS)[g](k, p, one, isp)
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


def _lc_matrix(g: GeneratorId, p: int) -> Matrix:
    """Exact 2p x 2p matrix of the generator in the LAMBDA_CHI basis."""
    n, one, isp = 2 * p, ExtScalar.one(p), inv_sqrt_p(p)
    cols: list[dict[int, ExtScalar]] = [{} for _ in range(n)]
    for col in range(n):
        kind, idx = ("L", col) if col <= p else ("C", col - p)
        for tkind, tidx, c in _lc_action(g, kind, idx, p, one, isp):
            cols[col][tidx if tkind == "L" else p + tidx] = c
    return linalg.transpose(linalg.sparse(n, ExtScalar.zero(p), cols))


def rep_matrices(gens: Iterable[GeneratorId], basis: Basis, p: int) -> dict[GeneratorId, Matrix]:
    """Exact 2p x 2p matrices of the generators in the requested ordered basis.

    VW and MU build their change of basis once and conjugate every generator's
    LAMBDA_CHI matrix by it; THIRD has LAMBDA_CHI's matrices.
    """
    if basis in (Basis.LAMBDA_CHI, Basis.THIRD):
        return {g: _lc_matrix(g, p) for g in gens}
    if basis not in (Basis.MU, Basis.VW):
        raise KeyError(basis)
    c, c_inv = (_mu_change if basis is Basis.MU else _vw_change)(p)
    return {g: linalg.matmul(c_inv, linalg.matmul(_lc_matrix(g, p), c)) for g in gens}


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


def integer_rows(
    mats: dict[GeneratorId, Matrix], basis: Basis, p: int
) -> tuple[int, dict[GeneratorId, list[dict[int, int]]]] | None:
    """(L, N'): one basis's generator matrices M_g made integer by the sqrt(p) grading.

    With s = sqrt(p), S = diag(s^delta_i) for delta = degrees(basis, p) and
    pi_g the parity of g, N'_g = L s^pi_g S M_g S^-1 as rows of
    {column: int} dicts of nonzeros, where L is the lcm of the
    denominators of all eight matrices' entries.  This needs entry (i, j)
    of M_g to lie in Q s^r, r = (delta_i + delta_j + pi_g) mod 2; then
    s^(delta_i - delta_j + r + pi_g) is 1 or p.  None at the first entry
    that does not.
    """
    deg = degrees(basis, p)
    scale = lcm(*(x.triple()[2] for m in mats.values() for row in m for x in row.nz.values()))
    graded = {}
    for g, m in mats.items():
        rows = []
        for i, row in enumerate(m):
            out = {}
            for j, x in row.nz.items():
                a, b, d = x.triple()
                r = (deg[i] + deg[j] + g.parity) % 2
                num, off = (b, a) if r else (a, b)
                if off:
                    return None
                # the power of s is 0 or 2
                out[j] = num * (scale // d) * (p if deg[i] - deg[j] + r + g.parity else 1)
            rows.append(out)
        graded[g] = rows
    return scale, graded


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
