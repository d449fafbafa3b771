"""Block detection and eigenvalue computation for small exact matrices.

Blocks are the connected components of the symmetrized sparsity graph.
Blocks of size 1 or 2 are solved exactly (quadratic radicals); larger blocks
go to the numeric solver, whose output is validated against recomputed
eigenvector residuals and the exact characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .linalg import Matrix
from .scalars import ExactEig, ExtScalar, rational_sqrt

NUMERIC_RTOL = 1e-9


class SolverError(RuntimeError):
    """The numeric eigensolver failed its residual or charpoly contract."""


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[tuple[int, ...], ...]
    submatrices: tuple[Matrix, ...]


def decompose(m: Matrix) -> BlockDecomposition:
    """Connected components of the symmetrized sparsity graph of m."""
    m = linalg.freeze(m)
    n, nc = linalg.shape(m)
    if n != nc:
        raise ValueError("square matrices only")
    adj = [set(row.nz) for row in m]
    for i, row in enumerate(m):
        for j in row.nz:
            adj[j].add(i)
    # each block starts at the first index no earlier block holds
    seen: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            new = adj[stack.pop()] - comp
            comp |= new
            stack.extend(new)
        seen |= comp
        blocks.append(tuple(sorted(comp)))
    subs = []
    for block in blocks:
        pos = {j: t for t, j in enumerate(block)}
        # every nonzero of a row lies in the row's block
        rows = ({pos[j]: x for j, x in m[i].nz.items()} for i in block)
        subs.append(linalg.sparse(len(block), m[block[0]].zero, rows))
    return BlockDecomposition(tuple(blocks), tuple(subs))


def eigenvalues_exact_small(block: Matrix) -> list[ExactEig]:
    """Exact eigenvalues of a 1x1 or 2x2 block with rational entries.

    Size 2 solves x^2 - tr x + det = 0; the radical stays exact because the
    radicand is rational.  Complex pairs (negative radicand) are not
    representable here and raise.
    """
    n, _ = linalg.shape(block)
    for row in block:
        for x in row:
            if isinstance(x, ExtScalar) and not x.is_rational():
                raise ValueError("exact path expects rational entries")
    as_frac = tuple(
        tuple(x.rat if isinstance(x, ExtScalar) else Fraction(x) for x in row)
        for row in block
    )
    if n == 1:
        return [ExactEig(as_frac[0][0], 0, Fraction(0))]
    if n == 2:
        tr = as_frac[0][0] + as_frac[1][1]
        det = as_frac[0][0] * as_frac[1][1] - as_frac[0][1] * as_frac[1][0]
        disc = tr * tr - 4 * det
        if disc < 0:
            raise ValueError("complex pair; no exact real radical form")
        half = Fraction(1, 2)
        root = rational_sqrt(disc)
        if root is not None:
            return [
                ExactEig(tr * half + root * half, 0, Fraction(0)),
                ExactEig(tr * half - root * half, 0, Fraction(0)),
            ]
        return [
            ExactEig(tr * half, 1, disc * half * half),
            ExactEig(tr * half, -1, disc * half * half),
        ]
    raise ValueError("exact path is limited to blocks of size <= 2")


def eigenvalues_numeric(block: Matrix) -> list[complex]:
    """All eigenvalues of the real embedding, with verified residuals.

    Contract: for each returned pair ||B v - t v|| <= 1e-9 ||B||, and the
    eigenvalue multiset matches the roots of the exact characteristic
    polynomial to 1e-9 relative.
    """
    n, _ = linalg.shape(block)
    a = np.array(
        [[x.to_float() if hasattr(x, "to_float") else float(x) for x in row] for row in block],
        dtype=float,
    )
    vals, vecs = np.linalg.eig(a)
    norm = np.linalg.norm(a) or 1.0
    for i in range(n):
        v = vecs[:, i]
        resid = np.linalg.norm(a @ v - vals[i] * v) / max(np.linalg.norm(v), 1e-300)
        if resid > NUMERIC_RTOL * norm:
            raise SolverError(f"residual {resid} too large for eigenvalue {vals[i]}")
    # cross-check against the exact characteristic polynomial when possible:
    # the coefficients are the elementary symmetric functions of the
    # eigenvalue multiset, which stays well conditioned under repeated roots
    # (unlike root extraction from the coefficients)
    if n <= 8 and all(isinstance(x, ExtScalar) for row in block for x in row):
        p = block[0][0].p
        exact_desc = [c.to_float() for c in linalg.ext_charpoly(block, p)][::-1]
        numeric_desc = np.poly(vals)
        for ce, cn in zip(exact_desc, numeric_desc):
            if abs(ce - cn) > NUMERIC_RTOL * max(1.0, abs(ce), abs(cn)):
                raise SolverError(
                    "eigensolver disagrees with exact characteristic polynomial"
                )
    out = [complex(v) for v in vals]
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def values_close(a: float, b: float, rtol: float = NUMERIC_RTOL) -> bool:
    """|a - b| <= rtol * max(|a|, |b|), with rtol as absolute floor near zero."""
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), rtol)


@dataclass(frozen=True)
class BlockSpectrum:
    block: tuple[int, ...]
    exact: tuple[ExactEig, ...] | None
    numeric: tuple[complex, ...]


def spectrum_of_matrix(m: Matrix) -> list[BlockSpectrum]:
    """Per-block eigenvalues: exact path for sizes <= 2, numeric always.

    The exact and numeric paths are compared to the 1e-9 relative contract.
    """
    dec = decompose(m)
    out = []
    for block, sub in zip(dec.blocks, dec.submatrices):
        numeric = tuple(eigenvalues_numeric(sub))
        exact = None
        if len(block) <= 2:
            try:
                eigs = eigenvalues_exact_small(sub)
            except ValueError:
                eigs = None
            if eigs is not None:
                exact = tuple(sorted(eigs, key=lambda e: e.value()))
                for e, z in zip(exact, numeric):
                    if abs(z.imag) > 1e-9 or not values_close(e.value(), z.real):
                        raise SolverError("exact and numeric paths disagree")
        out.append(BlockSpectrum(block, exact, numeric))
    return out
