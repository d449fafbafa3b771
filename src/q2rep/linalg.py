"""Small exact matrix helpers that skip zero entries.

Matrices are immutable tuples of tuples of ring elements (ExtScalar, Radical,
Fraction, ...); the two matrices a kernel combines hold one element type.
Representation matrices here have O(1) nonzeros per column, so the kernels
do exact arithmetic only on nonzero entries: `matmul` gathers each row of
the right factor's nonzeros once and accumulates row by row, and `add`,
`sub` and `scale` pass zero operands through.  Every entry left zero is one
shared zero of the result's type.  Each product entry still sums its terms
over ascending k, so the results are the same exact values a dense product
gives.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Sequence
from typing import TypeVar

from .scalars import ExtScalar, NotInvertibleError

T = TypeVar("T")
Matrix = tuple[tuple[T, ...], ...]


class SingularMatrixError(ValueError):
    """No invertible pivot was available during exact elimination."""


class InconsistentSystemError(ValueError):
    """An exact linear system has no solution (image leaves the span)."""


def freeze(rows: Sequence[Sequence[T]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def identity(n: int, one: T, zero: T) -> Matrix:
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def ext_identity(n: int, p: int) -> Matrix:
    return identity(n, ExtScalar.one(p), ExtScalar.zero(p))


def ext_zeros(n: int, m: int, p: int) -> Matrix:
    z = ExtScalar.zero(p)
    return tuple(tuple(z for _ in range(m)) for _ in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _check_shapes(a: Matrix, b: Matrix) -> None:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} vs {shape(b)}")


def _zero_like(x: T) -> T:
    """The zero of x's type.

    Callers pass a combination of both operands' first entries, so operands
    from different extensions still raise as a dense kernel would.
    """
    return x - x


def add(a: Matrix, b: Matrix) -> Matrix:
    _check_shapes(a, b)
    zero = _zero_like(a[0][0] + b[0][0]) if a and a[0] else None
    return tuple(
        tuple((x + y if y else x) if x else (y if y else zero) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def sub(a: Matrix, b: Matrix) -> Matrix:
    _check_shapes(a, b)
    zero = _zero_like(a[0][0] - b[0][0]) if a and a[0] else None
    return tuple(
        tuple((x - y if y else x) if x else (-y if y else zero) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def scale(c: T, a: Matrix) -> Matrix:
    zero = _zero_like(c * a[0][0]) if a and a[0] else None
    return tuple(tuple(c * x if x else zero for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2:
        raise ValueError(f"shape mismatch {shape(a)} x {shape(b)}")
    # built by addition, so that every multiplication here is of a nonzero pair
    zero = _zero_like(a[0][0] + b[0][0]) if n and m and k else None
    b_nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc: list = [None] * m
        for x, nonzeros in zip(row, b_nonzeros):
            if nonzeros and x:
                for j, y in nonzeros:
                    t = acc[j]
                    acc[j] = x * y if t is None else t + x * y
        out.append(tuple(zero if t is None else t for t in acc))
    return tuple(out)


def equal(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x is y or x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def first_difference(a: Matrix, b: Matrix) -> tuple[int, int] | None:
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x is not y and x != y:
                return i, j
    return None


def is_scalar_matrix(a: Matrix) -> bool:
    n, m = shape(a)
    if n != m or n == 0:
        return False
    d = a[0][0]
    return all(
        (a[i][j] == d) if i == j else (not a[i][j]) for i in range(n) for j in range(n)
    )


def _try_inverse(x: T) -> T | None:
    try:
        return x.inverse()
    except NotInvertibleError:
        return None


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b exactly; a is m x n with m >= n and full column rank.

    Pivots must be invertible ring elements (relevant when p is a perfect
    square and Q[s]/(s^2 - p) has zero divisors).  Raises SingularMatrixError
    when no invertible pivot exists and InconsistentSystemError when the
    system has no solution.
    """
    m, n = shape(a)
    mb, q = shape(b)
    if m != mb:
        raise ValueError("row count mismatch between matrix and right-hand side")
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    r = 0
    for c in range(n):
        pivot, pinv = None, None
        for rr in range(r, m):
            if rows[rr][c]:
                inv = _try_inverse(rows[rr][c])
                if inv is not None:
                    pivot, pinv = rr, inv
                    break
        if pivot is None:
            raise SingularMatrixError(f"no invertible pivot in column {c}")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [pinv * x for x in rows[r]]
        for rr in range(m):
            if rr == r:
                continue
            f = rows[rr][c]
            if not f:
                continue
            rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        r += 1
    for rr in range(r, m):
        for c in range(n, n + q):
            if rows[rr][c]:
                raise InconsistentSystemError("system has no exact solution")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def ext_invert(a: Matrix, p: int) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("only square matrices can be inverted")
    return solve(a, ext_identity(n, p))


def ext_charpoly(a: Matrix, p: int) -> list[ExtScalar]:
    """Exact characteristic polynomial det(tI - A) by Faddeev-LeVerrier.

    Returns coefficients [c_0, c_1, ..., c_{n-1}, 1] by ascending power of t.
    """
    n, m = shape(a)
    if n != m:
        raise ValueError("characteristic polynomial needs a square matrix")
    one = ExtScalar.one(p)
    zero = ExtScalar.zero(p)
    ident = identity(n, one, zero)
    coeffs: list[ExtScalar] = [zero] * n + [one]
    m_prev = ident
    for k in range(1, n + 1):
        mk = matmul(a, m_prev)
        tr = zero
        for i in range(n):
            tr = tr + mk[i][i]
        ck = tr * Fraction(-1, k)
        coeffs[n - k] = ck
        if k < n:
            m_prev = add(mk, scale(ck, ident))
    return coeffs
