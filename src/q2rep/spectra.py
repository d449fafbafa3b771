"""Blocks and certified eigenvalues of exact rational matrices.

Blocks are the strongly connected components of the sparsity graph: the
diagonal blocks of a block-triangular form.  Blocks of size <= 2 are solved
exactly (quadratic radicals); a larger one must be tridiagonal with real,
simple eigenvalues, certified exactly.  Otherwise SolverError names the
block, and no float is reported for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Matrix
from .scalars import ExactEig, ExtScalar, rational_sqrt

NUMERIC_RTOL = 1e-9
GRID_FLOOR = 2**16  # most grid points tried before a block is given up
REFINE_BITS = 40  # brackets end narrower than 2^-40 of their larger end


class SolverError(RuntimeError):
    """A block whose eigenvalues cannot be certified real; the message names the block."""


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[tuple[int, ...], ...]
    submatrices: tuple[Matrix, ...]


def decompose(m: Matrix) -> BlockDecomposition:
    """Strongly connected components of the graph i -> j for m[i][j] != 0, by first index."""
    m = linalg.freeze(m)
    n, nc = linalg.shape(m)
    if n != nc:
        raise ValueError("square matrices only")
    # a block is what its first index reaches along rows and along columns
    graphs = [row.nz.keys() for row in m], [row.nz.keys() for row in linalg.transpose(m)]
    placed: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    for start in (i for i in range(n) if i not in placed):
        reach = []
        for adj in graphs:
            seen, stack = {start}, [start]
            while stack:
                new = adj[stack.pop()] - seen
                seen |= new
                stack.extend(new)
            reach.append(seen)
        blocks.append(tuple(sorted(reach[0] & reach[1])))
        placed.update(blocks[-1])
    subs = []
    for block in blocks:
        pos = {j: t for t, j in enumerate(block)}
        rows = ({pos[j]: x for j, x in m[i].nz.items() if j in pos} for i in block)
        subs.append(linalg.sparse(len(block), m[block[0]].zero, rows))
    return BlockDecomposition(tuple(blocks), tuple(subs))


def _rational(x) -> Fraction:
    if isinstance(x, ExtScalar) and not x.is_rational():
        raise ValueError("exact path expects rational entries")
    return x.rat if isinstance(x, ExtScalar) else Fraction(x)


def eigenvalues_exact_small(block: Matrix) -> list[ExactEig]:
    """Exact eigenvalues of a 1x1 or 2x2 block with rational entries.

    Size 2 solves x^2 - tr x + det = 0 with a rational radicand; a complex
    pair (negative radicand) raises.
    """
    n, _ = linalg.shape(block)
    as_frac = [[_rational(x) for x in row] for row in block]
    if n == 1:
        return [ExactEig(as_frac[0][0], 0, Fraction(0))]
    if n != 2:
        raise ValueError("exact path is limited to blocks of size <= 2")
    (a, b), (c, e) = as_frac
    tr, disc = a + e, (a - e) ** 2 + 4 * b * c  # tr^2 - 4 det
    if disc < 0:
        raise ValueError("complex pair; no exact real radical form")
    root = rational_sqrt(disc)
    if root is not None:
        return [ExactEig((tr + sign * root) / 2, 0, Fraction(0)) for sign in (1, -1)]
    return [ExactEig(tr / 2, sign, disc / 4) for sign in (1, -1)]


def _at_scale(f: list[int], s: int) -> list[int]:
    """Ascending coefficients of 2^(s n) f(x / 2^s), for f of degree n."""
    return [c << (s * (len(f) - 1 - i)) for i, c in enumerate(f)]


def _horner(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _refine(f: list[int], a: int, b: int, fa: int, fb: int, s: int) -> tuple[Fraction, bool]:
    """(root, True) for an exact root of f in (a, b) / 2^s, else (bracket midpoint, False).

    fa, fb are the values of 2^(s n) f at a, b: nonzero, of opposite signs;
    0 is not inside.  Illinois regula falsi at dyadic points until the
    bracket is narrower than 2^-REFINE_BITS of its larger end.
    """
    n, g, kept = len(f) - 1, None, 0  # g: f at scale s; kept: the end the last step kept
    while (b - a) << REFINE_BITS > max(abs(a), abs(b)):
        if g is None or b - a < 2**32:  # room for the secant point: 32 more bits, same values
            a, b, s, fa, fb = a << 32, b << 32, s + 32, fa << 32 * n, fb << 32 * n
            g = _at_scale(f, s)
        x = min(max((a * fb - b * fa) // (fb - fa), a + 1), b - 1)
        fx = _horner(g, x)
        if not fx:
            return Fraction(x, 2**s), True
        if (fx < 0) == (fa < 0):
            a, fa, fb, kept = x, fx, fb // 2 if kept == 1 else fb, 1
        else:
            b, fb, fa, kept = x, fx, fa // 2 if kept == -1 else fa, -1
    r = -(-a >> s)  # the least integer inside: a monic integer f has no other rational roots
    if r << s <= b and not _horner(f, r):
        return Fraction(r), True
    return Fraction(a + b, 2 ** (s + 1)), False


def eigenvalues_tridiagonal(block: Matrix) -> list[tuple[float, ExactEig | None]]:
    """Certified real eigenvalues of a rational tridiagonal block, as (float, exact form or None).

    With d the common denominator, the three-term recurrence gives the
    integer characteristic polynomial f of d * block.  f is evaluated on the
    multiples of a power of two over the Gershgorin interval, halving the
    step until it has n zeros and sign changes: then every root is real and
    simple.  A zero is an exact root; each sign change goes to `_refine`.
    Raises ValueError for a block that is not tridiagonal and SolverError
    when the grid would pass GRID_FLOOR points.
    """
    rows = linalg.freeze(block)
    n = len(rows)
    if any(abs(i - j) > 1 for i, row in enumerate(rows) for j in row.nz):
        raise ValueError("block is not tridiagonal")
    t = [{j: _rational(x) for j, x in row.nz.items()} for row in rows]
    d = math.lcm(*(x.denominator for row in t for x in row.values()))
    diag = [int(t[i].get(i, 0) * d) for i in range(n)]
    prev, f = [1], [-diag[0], 1]
    for i in range(1, n):
        off = int(t[i].get(i - 1, 0) * t[i - 1].get(i, 0) * d * d)
        prev, f = f, [a - diag[i] * b - off * c for a, b, c in zip([0, *f], f + [0], prev + [0, 0])]
    radius = [int(sum(abs(x) for j, x in t[i].items() if j != i) * d) for i in range(n)]
    lo, hi = min(a - r for a, r in zip(diag, radius)), max(a + r for a, r in zip(diag, radius))
    # grid points xs[k] / 2^s, two at least, with values vals[k] = 2^(s n) f(xs[k] / 2^s)
    step, s = 2 ** (-(-(hi - lo) // n)).bit_length(), 0
    xs = list(range(lo // step * step, hi + step + 1, step))
    vals = [_horner(f, x) for x in xs]
    while sum(not v for v in vals) + sum(u * v < 0 for u, v in zip(vals, vals[1:])) < n:
        if 2 * len(xs) > GRID_FLOOR:
            raise SolverError(f"no {n} real roots isolated on a grid of {len(xs)} points")
        s, mids = s + 1, [x + y for x, y in zip(xs, xs[1:])]
        g = _at_scale(f, s)
        new = [_horner(g, x) for x in mids]
        xs = [x for pair in zip((2 * x for x in xs), mids) for x in pair] + [2 * xs[-1]]
        vals = [v for pair in zip((v << n for v in vals), new) for v in pair] + [vals[-1] << n]
    # a zero is an exact root; a sign change up to the next point brackets one
    roots = [(Fraction(x, 2**s), True) if not v else _refine(f, x, y, v, w, s)
             for x, y, v, w in zip(xs, xs[1:] + [0], vals, vals[1:] + [0]) if not v or v * w < 0]
    eigs = [(ExactEig(r / d, 0, Fraction(0)), ok) for r, ok in roots]
    return [(e.value(), e if ok else None) for e, ok in eigs]


def values_close(a: float, b: float, rtol: float = NUMERIC_RTOL) -> bool:
    """|a - b| <= rtol * max(|a|, |b|), with rtol as absolute floor near zero."""
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), rtol)


@dataclass(frozen=True)
class BlockSpectrum:
    """One block's eigenvalues, ascending: numeric[i] is real, exact[i] its exact form or None."""

    block: tuple[int, ...]
    exact: tuple[ExactEig | None, ...]
    numeric: tuple[float, ...]


def spectrum_of_matrix(m: Matrix) -> list[BlockSpectrum]:
    """Certified eigenvalues of each block of m; raises SolverError naming a block that fails."""
    dec = decompose(m)
    out = []
    for block, sub in zip(dec.blocks, dec.submatrices):
        try:
            if len(block) <= 2:
                pairs = [(e.value(), e) for e in eigenvalues_exact_small(sub)]
            else:
                pairs = eigenvalues_tridiagonal(sub)
        except (ValueError, SolverError) as exc:
            raise SolverError(f"block {list(block)}: {exc}") from exc
        values, exact = zip(*sorted(pairs, key=lambda pair: pair[0]))
        out.append(BlockSpectrum(block, exact, values))
    return out
