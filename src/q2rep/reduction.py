"""Independent derivation of the sphaleron polynomial eigensystems.

The two coupled mode equations (in the variable x, with A = (1-x)(1-k2 x)
and u = x A) are

    D40 W = 0,   D40 = 4u d^2 + 2 (x A)' d + lam - th2 k2 x
    D41 f = -2 sqrt(A/x) W,   D41 = 4u d^2 + 2 (-1 + k2 x^2) d + lam - th2 k2 x

Each tractable sector substitutes W and f as a square-root prefactor times
polynomial combinations of a pair (P, Q) and requires th2 = 2p(2p+1) or
2p(2p-1).  Conjugating the operators by the prefactors turns everything into
rational-function arithmetic: for prefactor F with F'/F = phi rational,

    F^{-1} (c2 d^2 + c1 d + c0) F = c2 d^2 + (c1 + 2 c2 phi) d
                                    + c0 + c1 phi + c2 (phi' + phi^2).

The four sectors and their prefactors (eps = (half-power of x, of A)):

    case 43:  W = P + x Q            f = sqrt(x A) P      th2 = 2p(2p+1)
    case 44:  W = sqrt(A) P          f = sqrt(x)(P + xQ)  th2 = 2p(2p+1)
    case 50:  W = sqrt(x) Q          f = sqrt(A) P        th2 = 2p(2p-1)
    case 51:  W = sqrt(x A) Q        f = P                th2 = 2p(2p-1)

Cases 43, 44, 50 act on (P, Q) of degrees (p-1, p-1); case 51 on (p, p-2).
After eliminating the prefactors the equations reorganize into two polynomial
rows (upper paired with P, lower with Q) whose lam-part is the identity; the
lam-free part is the sector matrix.  This module performs that reorganization
over the integers, and is the oracle that anchors the closed-form operators in
`models`; it imports nothing from the rest of the package.  With k2 = a/b in
lowest terms, b A = b - (a+b) x + a x^2 stands in for A (the conjugation is
homogeneous in A); each operator and its conjugated denominator are multiplied
by b, and the A-coupling of cases 44 and 51 is the ratio b A pol g / b (over
b x in case 44).  A Fraction is made only where a row is formed.

Each operator is conjugated once per matrix, at lam = 0, to
(n2 d^2 + n1 d + n0) / den.  lam enters c0 alone and commutes with F, so the
operator at lam = 1 has n0 + lam den in place of n0 and is otherwise the same.
The polynomials are sparse and store no zero coefficient: a basis monomial
costs a bounded amount of arithmetic, and a matrix costs arithmetic linear in p.
"""

from __future__ import annotations

import math
from fractions import Fraction

Poly = dict  # {degree: coefficient} over int, Fraction in a row; zero coefficients are never stored
X, ONE = {1: 1}, {0: 1}  # the polynomials x and 1
COUPLING = 2  # the f equation reads D41 f + COUPLING sqrt(A/x) W = 0


class ReductionError(RuntimeError):
    """The substitution did not produce the expected polynomial system."""


def _accumulate(out: Poly, k: int, c) -> None:
    """out[k] += c, dropping the term when it cancels."""
    if k in out:
        c += out[k]
        if not c:
            del out[k]
            return
    out[k] = c


def _add(*polys: Poly) -> Poly:
    out: Poly = {}
    for a in polys:
        for i, c in a.items():
            _accumulate(out, i, c)
    return out


def _mul(a: Poly, *factors) -> Poly:
    """The product of a polynomial with polynomials and scalars.

    A monomial e x^k (ONE, X, a scalar) shifts degrees by k and multiplies
    by e only when e is not +-1, so a unit factor costs no coefficient product.
    """
    for b in factors:
        if not isinstance(b, dict):
            b = {0: b} if b else {}
        if len(a) == 1 and len(b) > 1:
            a, b = b, a
        if len(b) == 1:
            ((k, e),) = b.items()
            if e == 1:
                a = {i + k: c for i, c in a.items()}
                continue
            if e == -1:
                a = {i + k: -c for i, c in a.items()}
                continue
        a = _product(a, b)
    return a


def _product(a: Poly, b: Poly) -> Poly:
    """a * b by its len(a) * len(b) coefficient products."""
    if len(b) == 1:
        ((k, e),) = b.items()
        return {i + k: c * e for i, c in a.items()}
    out: Poly = {}
    for i, c in a.items():
        for j, e in b.items():
            _accumulate(out, i + j, c * e)
    return out


def _diff(a: Poly) -> Poly:
    return {i - 1: i * c for i, c in a.items() if i}


def _sub(r: tuple[Poly, Poly], s: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """r - s for (numerator, denominator) pairs, over the product of the denominators."""
    (rn, rd), (sn, sd) = r, s
    return _add(_mul(rn, sd), _mul(sn, rd, -1)), _mul(rd, sd)


def _poly_or_raise(num: Poly, den: Poly, label: str) -> tuple[Poly, Poly]:
    """num / den as the integer pair (c num / den, {0: c}), c = content(den); a remainder raises."""
    # by Gauss's lemma each step of the long division by the primitive den / c is exact over Z
    c, d_den = math.gcd(*den.values()), max(den)
    lead, lower = den[d_den] // c, [(j, e // c) for j, e in den.items() if j != d_den]
    rem, quot = dict(num), {}
    while rem:
        top = max(rem)
        shift, (q, r) = top - d_den, divmod(rem.pop(top), lead)
        if top < d_den or r:
            raise ReductionError(f"{label} is not polynomial")
        # the top term cancels exactly; only the lower terms of den / c are subtracted
        quot[shift], minus_q = q, -q
        for j, e in lower:
            _accumulate(rem, shift + j, minus_q * e)
    return quot, {0: c}


def _row(quot: Poly, den: Poly) -> Poly:
    """The Fraction polynomial quot / den of a pair made by _poly_or_raise."""
    return {i: Fraction(v, den[0]) for i, v in quot.items()}


def _conjugated(coeffs: tuple, eps_x: int, eps_a: int, a: Poly) -> tuple:
    """F^-1 D F as (n0, n1, n2, den) = (n2 d^2 + n1 d + n0) / den, F = x^(eps_x/2) A^(eps_a/2)."""
    c0, c1, c2 = coeffs
    n, d = _add(_mul(a, eps_x), _mul(X, _diff(a), eps_a)), _mul(X, a, 2)  # phi = n / d
    phi_terms = _add(_mul(_diff(n), d), _mul(n, _diff(d), -1), _mul(n, n))  # (phi' + phi^2) d^2
    n0 = _add(_mul(c0, d, d), _mul(c1, n, d), _mul(c2, phi_terms))
    return n0, _add(_mul(c1, d, d), _mul(c2, n, d, 2)), _mul(c2, d, d), _mul(d, d)


def _apply(op: tuple, pol: Poly) -> tuple[Poly, Poly]:
    n0, n1, n2, den = op
    return _add(_mul(n2, _diff(_diff(pol))), _mul(n1, _diff(pol)), _mul(n0, pol)), den


_CASES = {
    43: {"theta2": lambda p: 2 * p * (2 * p + 1), "caps": lambda p: (p - 1, p - 1)},
    44: {"theta2": lambda p: 2 * p * (2 * p + 1), "caps": lambda p: (p - 1, p - 1)},
    50: {"theta2": lambda p: 2 * p * (2 * p - 1), "caps": lambda p: (p - 1, p - 1)},
    51: {"theta2": lambda p: 2 * p * (2 * p - 1), "caps": lambda p: (p, p - 2)},
}
_EPS = {43: ((0, 0), (1, 1)), 44: ((0, 1), (1, 0)), 50: ((1, 0), (0, 1)), 51: ((1, 1), (0, 0))}


def sector_caps(case: int, p: int) -> tuple[int, int]:
    return _CASES[case]["caps"](p)


def _sector_rows(case: int, p: int, k2: Fraction):
    """rows(P, Q, lam) -> (upper, lower); D40 and D41 are conjugated once, by the W and f prefactors."""
    k, b = k2.numerator, k2.denominator
    ba, th2 = _add({0: b}, _mul(X, -k - b), _mul(X, X, k)), _CASES[case]["theta2"](p)  # b A
    c0, u4 = _mul(X, -th2 * k), _mul(X, ba, 4)  # b c0 at lam = 0, and b 4u
    (wx, wa), (fx, fa) = _EPS[case]
    conj = (_conjugated((c0, _diff(_mul(X, ba, 2)), u4), wx, wa, ba),
            _conjugated((c0, _add(_mul(ONE, -2 * b), _mul(X, X, 2 * k)), u4), fx, fa, ba))
    # the operators were multiplied by b, so are their denominators; lam enters
    # through c0 alone, as b lam times the conjugated denominator in n0
    ops = {lam: [(_add(n0, _mul(den, b * lam)), n1, n2, _mul(den, b)) for n0, n1, n2, den in conj]
           for lam in (0, 1)}
    g, up, low = -COUPLING, f"upper row (case {case})", f"lower row (case {case})"

    def rows(pol_p: Poly, pol_q: Poly, lam: int) -> tuple[Poly, Poly]:
        conj_w, conj_f = ops[lam]
        if case == 43:
            s_w = _add(pol_p, _mul(X, pol_q))
            # the 1/x poles of the conjugated operator cancel against the coupling
            row_up = _poly_or_raise(*_sub(_apply(conj_f, pol_p), (_mul(s_w, g), X)), up)
            num, den = _sub(_apply(conj_w, s_w), row_up)
            return _row(*row_up), _row(*_poly_or_raise(num, _mul(X, den), low))
        if case == 44:
            row_up = _poly_or_raise(*_apply(conj_w, pol_p), up)
            s_f = _add(pol_p, _mul(X, pol_q))
            num, den = _sub(_apply(conj_f, s_f), (_mul(ba, pol_p, g), {1: b}))
            num, den = _sub((_mul(X, num), den), (_mul(X, row_up[0]), row_up[1]))
            return _row(*row_up), _row(*_poly_or_raise(num, _mul(X, X, den), low))
        coupling = (_mul(pol_q, g), ONE) if case == 50 else (_mul(ba, pol_q, g), {0: b})
        row_up = _poly_or_raise(*_sub(_apply(conj_f, pol_p), coupling), up)
        return _row(*row_up), _row(*_poly_or_raise(*_apply(conj_w, pol_q), low))

    return rows


def derived_matrix(case: int, p: int, k2: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """The exact 2p x 2p sector matrix M with (M + lam I) (P, Q) = 0.

    Derived from scratch for each basis monomial; validates along the way that
    the rows are polynomial, respect the degree caps, and carry lam exactly on
    the diagonal (the rows are affine in lam: the lam-part is row(1) - row(0)).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    d_up, d_low = sector_caps(case, p)
    n_up, n_low = d_up + 1, d_low + 1
    if n_up + n_low != 2 * p:
        raise AssertionError("sector dimension mismatch")
    rows, zero = _sector_rows(case, p, Fraction(k2)), Fraction(0)
    cols = []
    for idx in range(n_up + n_low):
        mono = {idx if idx < n_up else idx - n_up: 1}
        pol_p, pol_q = (mono, {}) if idx < n_up else ({}, mono)
        (up0, low0), (up1, low1) = rows(pol_p, pol_q, 0), rows(pol_p, pol_q, 1)
        if _add(up1, _mul(up0, -1)) != pol_p or _add(low1, _mul(low0, -1)) != pol_q:
            raise ReductionError(f"lam does not pair with the identity (case {case})")
        deg_up, deg_low = max(up0, default=-1), max(low0, default=-1)
        if deg_up > d_up or deg_low > d_low:
            degrees = f"{deg_up}, {deg_low} vs {d_up}, {d_low}"
            raise ReductionError(f"degree cap violated in case {case} (p={p}): {degrees}")
        col = [zero] * (2 * p)
        for i, c in up0.items():
            col[i] = c
        for i, c in low0.items():
            col[n_up + i] = c
        cols.append(col)
    return tuple(zip(*cols))
