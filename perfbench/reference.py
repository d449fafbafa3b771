"""Certified reference eigenvalues of an exact rational matrix, without numpy.

The characteristic polynomial is computed exactly over QQ, its real roots
are isolated exactly (sympy's continued-fraction isolation), and sympy
refines each isolating interval until it is narrower than REL_WIDTH
relative.  Every returned root is therefore known to about 1e-13 relative,
four orders below the 1e-9 contract it is compared against.  Non-real roots
are not approximated: the caller learns how many roots are real and treats a
shortfall as an uncheckable (failed) spectrum.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import lcm
from pathlib import Path

REL_WIDTH = Fraction(1, 10**13)


def integer_charpoly(rows: list[list[Fraction]]) -> list[int]:
    """Characteristic polynomial, descending coefficients, scaled to integers."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows)
    dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows], (n, n), QQ)
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in dm.charpoly()]
    scale = lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def real_roots(rows: list[list[Fraction]]) -> tuple[list[float], int]:
    """(sorted real eigenvalues with multiplicity, number of eigenvalues)."""
    from sympy import Poly, Rational, Symbol

    coeffs = integer_charpoly(rows)
    poly = Poly(coeffs, Symbol("x"))
    # refinement bisects on sign changes, so it runs on the square-free part
    simple = poly.sqf_part()
    rel = Rational(REL_WIDTH.numerator, REL_WIDTH.denominator)
    roots: list[float] = []
    for (lo, hi), mult in poly.intervals():
        lo, hi = simple.refine_root(lo, hi, eps=rel * max(abs(lo), abs(hi), 1))
        roots += [float((lo + hi) / 2)] * mult
    return sorted(roots), len(coeffs) - 1


def reference_key(rows: list[list[Fraction]]) -> str:
    """Key of a matrix's reference: this file's source and the exact entries, so
    a changed matrix or a changed method never reuses a stale reference."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(repr(rows).encode())
    return h.hexdigest()


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def cached_real_roots(matrices: dict, path: Path, shipped: Path) -> dict:
    """real_roots of each matrix, reusing results stored in shipped or path.

    shipped is only read; a result computed here is added to path.
    """
    cache = {**load(shipped), **load(path)}
    out, new = {}, {}
    for name, rows in matrices.items():
        key = reference_key(rows)
        if key not in cache:
            cache[key] = new[key] = real_roots(rows)
        roots, n = cache[key]
        out[name] = (roots, n)
    if new:
        path.parent.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**load(path), **new}))
        os.replace(tmp, path)
    return out
