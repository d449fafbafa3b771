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
with polynomials over Fraction, and is the oracle that anchors the closed-form
operators in `models`; it imports nothing from the rest of the package.

Each operator is conjugated once per matrix, at lam = 0, to
(n2 d^2 + n1 d + n0) / den.  lam enters c0 alone and commutes with F, so the
operator at lam = 1 has n0 + lam den in place of n0 and is otherwise the same.
The polynomials are sparse and store no zero coefficient: a basis monomial
costs a bounded amount of arithmetic, and a matrix costs arithmetic linear in p.
"""

from __future__ import annotations

from fractions import Fraction

Poly = dict  # {degree: coefficient} over Fraction; zero coefficients are never stored
X, ONE = {1: Fraction(1)}, {0: Fraction(1)}  # the polynomials x and 1
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
    by e only when e is not +-1, so a unit factor costs no Fraction product.
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
            elif e == -1:
                a = {i + k: -c for i, c in a.items()}
            else:
                a = {i + k: c * e for i, c in a.items()}
            continue
        out: Poly = {}
        for i, c in a.items():
            for j, e in b.items():
                _accumulate(out, i + j, c * e)
        a = out
    return a


def _diff(a: Poly) -> Poly:
    return {i - 1: i * c for i, c in a.items() if i}


def _sub(r: tuple[Poly, Poly], s: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """r - s for (numerator, denominator) pairs, over the product of the denominators."""
    (rn, rd), (sn, sd) = r, s
    return _add(_mul(rn, sd), _mul(sn, rd, -1)), _mul(rd, sd)


def _poly_or_raise(num: Poly, den: Poly, label: str) -> Poly:
    """num / den by exact long division; a nonzero remainder raises."""
    rem, quot = dict(num), {}
    d_den = max(den)
    while rem:
        top = max(rem)
        if top < d_den:
            raise ReductionError(f"{label} is not polynomial")
        # the top term cancels exactly; only the lower terms of den are subtracted
        shift, q = top - d_den, rem.pop(top) / den[d_den]
        quot[shift], minus_q = q, -q
        for j, e in den.items():
            if j != d_den:
                _accumulate(rem, shift + j, minus_q * e)
    return quot


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
    a, th2 = _add(ONE, _mul(X, -1 - k2), _mul(X, X, k2)), _CASES[case]["theta2"](p)
    c0, u4 = _mul(X, -th2 * k2), _mul(X, a, 4)  # c0 at lam = 0
    (wx, wa), (fx, fa) = _EPS[case]
    conj = (_conjugated((c0, _mul(_diff(u4), Fraction(1, 2)), u4), wx, wa, a),
            _conjugated((c0, _add(_mul(ONE, -2), _mul(X, X, 2 * k2)), u4), fx, fa, a))
    # lam enters through c0 alone, as lam * den in n0 of each conjugated operator
    ops = {lam: [(_add(n0, _mul(den, lam)), n1, n2, den) for n0, n1, n2, den in conj]
           for lam in (0, 1)}
    g, up, low = -COUPLING, f"upper row (case {case})", f"lower row (case {case})"

    def rows(pol_p: Poly, pol_q: Poly, lam: int) -> tuple[Poly, Poly]:
        conj_w, conj_f = ops[lam]
        if case == 43:
            s_w = _add(pol_p, _mul(X, pol_q))
            # the 1/x poles of the conjugated operator cancel against the coupling
            row_up = _poly_or_raise(*_sub(_apply(conj_f, pol_p), (_mul(s_w, g), X)), up)
            num, den = _sub(_apply(conj_w, s_w), (row_up, ONE))
            return row_up, _poly_or_raise(num, _mul(X, den), low)
        if case == 44:
            row_up = _poly_or_raise(*_apply(conj_w, pol_p), up)
            s_f = _add(pol_p, _mul(X, pol_q))
            num, den = _sub(_apply(conj_f, s_f), (_mul(a, pol_p, g), X))
            num, den = _sub((_mul(X, num), den), (_mul(X, row_up), ONE))
            return row_up, _poly_or_raise(num, _mul(X, X, den), low)
        coupling = _mul(pol_q, g) if case == 50 else _mul(a, pol_q, g)
        row_up = _poly_or_raise(*_sub(_apply(conj_f, pol_p), (coupling, ONE)), up)
        return row_up, _poly_or_raise(*_apply(conj_w, pol_q), low)

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
        mono = {idx if idx < n_up else idx - n_up: Fraction(1)}
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
