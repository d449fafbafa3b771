"""Exact matrices as tuples of sparse rows.

A `Row` keeps its length, the one shared zero of its entry type (ExtScalar
of the right p, Radical, Fraction, int, ...) and a dict `nz` of its nonzero
entries by ascending column.  `len(row)`, `row[j]` and iteration give the
dense view, zeros included.  The Matrix kernels take matrices of `Row`s
only; `freeze` is the one conversion from dense rows.  Entries need only
ring arithmetic and a truth value (`solve` also needs `inverse`), so plain
ints work too: `verify` checks the bracket relations on the integer rows
of `rep.graded_matrices`.

The kernels, `solve` included, do arithmetic, comparisons and truth tests
on stored nonzeros only.  Each product entry still sums its terms over
ascending k, entries that cancel are dropped, and a result's zero comes
from its operands' zeros, so every entry has the value, type and p a dense
kernel gives.

Two loops do the arithmetic.  The multiply-accumulate loop, `product_rows`,
takes a and b as rows of {column: entry} dicts and returns each row of
a @ b as a dict of its nonzeros; `matmul` checks the shapes, passes the
`nz` rows and sorts the result into a Matrix.  The linear-combination
loop, `_combination_row`, sums c times such rows over (c, rows) terms:
`add`, `sub` and `sum_of_products` sort its rows into a Matrix, and
`signed_sums_equal` compares them as they are, which is how `verify`
checks each bracket relation [[M_x, M_y]] = sum c M_z without building a
matrix.  `scale` sums nothing; it multiplies every entry, so that each has
the type of c * x.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat
from typing import TypeVar

from .scalars import ExtScalar, NotInvertibleError

T = TypeVar("T")


class Row:
    """One matrix row; immutable by convention, since kernels share `nz` dicts."""

    __slots__ = ("n", "zero", "nz")

    def __init__(self, n: int, zero: T, nz: dict[int, T]) -> None:
        self.n, self.zero, self.nz = n, zero, nz

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j):
        if type(j) is int and 0 <= j < self.n:
            return self.nz.get(j, self.zero)
        return tuple(self)[j]

    def __iter__(self):
        return map(self.nz.get, range(self.n), repeat(self.zero))

    def __eq__(self, other: object) -> bool:
        if type(other) is Row:
            return self.n == other.n and self.nz == other.nz
        return tuple(self) == tuple(other) if isinstance(other, (tuple, list)) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


Matrix = tuple[Row, ...]


class SingularMatrixError(ValueError):
    """No invertible pivot was available during exact elimination."""


class InconsistentSystemError(ValueError):
    """An exact linear system has no solution (image leaves the span)."""


def _as_row(r: Sequence[T]) -> Row:
    if type(r) is Row:
        return r
    r = tuple(r)
    return Row(len(r), r[0] - r[0] if r else None, {j: x for j, x in enumerate(r) if x})


def freeze(rows: Sequence[Sequence[T]]) -> Matrix:
    """The matrix of dense rows; Rows pass through."""
    return tuple(map(_as_row, rows))


def sparse(m: int, zero: T, rows: Iterable[dict[int, T]]) -> Matrix:
    """Rows of length m from {column: entry} dicts; zero entries are dropped."""
    return tuple(Row(m, zero, {j: x for j in sorted(d) if (x := d[j])}) for d in rows)


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def identity(n: int, one: T, zero: T) -> Matrix:
    return tuple(Row(n, zero, {i: one}) for i in range(n))


def ext_identity(n: int, p: int) -> Matrix:
    return identity(n, ExtScalar.one(p), ExtScalar.zero(p))


def transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    cols: list[dict] = [{} for _ in range(a[0].n)]
    for i, row in enumerate(a):
        for j, x in row.nz.items():
            cols[j][i] = x
    return tuple(Row(len(a), a[0].zero, col) for col in cols)


def _check_shapes(a: Matrix, b: Matrix) -> None:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} vs {shape(b)}")


def _combination_row(terms, i: int) -> dict:
    """Row i of the sum of c * A over the (c, A) terms, in no set column order.

    This is the one linear-combination loop.  Each A is a sequence of rows
    given as {column: entry} dicts of nonzeros, as `product_rows` returns
    them or a Row stores them (`nz`).  A term with c = +-1 is added or
    subtracted with no product, and an entry that cancels, or is a product
    of zero divisors, is deleted.
    """
    out: dict = {}
    for c, rows in terms:
        row = rows[i]
        if c == 1 and not out:
            out = dict(row)
        elif c == 1:
            for j, x in row.items():
                if j not in out:
                    out[j] = x
                elif v := out[j] + x:
                    out[j] = v
                else:
                    del out[j]
        elif c == -1:
            for j, x in row.items():
                if j not in out:
                    out[j] = -x
                elif v := out[j] - x:
                    out[j] = v
                else:
                    del out[j]
        else:
            for j, x in row.items():
                if v := out[j] + c * x if j in out else c * x:
                    out[j] = v
                else:
                    out.pop(j, None)
    return out


def _combination(terms, n: int, m: int, zero: T) -> Matrix:
    """The n x m matrix sum of c * A over the (c, A) terms; each row is sorted once."""
    return tuple(Row(m, zero, dict(sorted(_combination_row(terms, i).items()))) for i in range(n))


def _add(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """a + sign * b for sign = +-1."""
    _check_shapes(a, b)
    n, m = shape(a)
    # zeros combine as entries do: operands from two extensions raise here
    zero = a[0].zero + b[0].zero if m else None
    return _combination([(1, [r.nz for r in a]), (sign, [r.nz for r in b])], n, m, zero)


def add(a: Matrix, b: Matrix) -> Matrix:
    return _add(a, b, 1)


def sub(a: Matrix, b: Matrix) -> Matrix:
    return _add(a, b, -1)


def scale(c: T, a: Matrix) -> Matrix:
    # an ExtScalar 1 of a Fraction matrix must give ExtScalars: no +-1 shortcut
    m = shape(a)[1]
    zero = c * a[0].zero if m else None
    return tuple(Row(m, zero, {j: v for j, x in r.nz.items() if (v := c * x)}) for r in a)


def product_rows(a: Sequence[dict], b: Sequence[dict]) -> list[dict]:
    """The rows of a @ b as {column: entry} dicts of their nonzeros, in no set column order.

    This is the one multiply-accumulate loop.  a and b are sequences of
    rows given as {column: entry} dicts of nonzeros, as a Row stores them
    (`nz`) or this loop returns them; shapes are the caller's to check.
    `matmul` sorts its rows into a Matrix, and `signed_sums_equal` and
    `sum_of_products` sum them as they are.  Only nonzero pairs are
    multiplied, each entry sums its terms over ascending k, and an entry
    that cancels, or is a product of zero divisors, is deleted.
    """
    out = []
    for row in a:
        acc: dict = {}
        for kk, x in row.items():
            for j, y in b[kk].items():
                t = acc.get(j)
                acc[j] = x * y if t is None else t + x * y
        if not all(acc.values()):
            acc = {j: v for j, v in acc.items() if v}
        out.append(acc)
    return out


def _check_product(a: Matrix, b: Matrix) -> None:
    if shape(a)[1] != len(b):
        raise ValueError(f"shape mismatch {shape(a)} x {shape(b)}")


def matmul(a: Matrix, b: Matrix) -> Matrix:
    _check_product(a, b)
    rows = product_rows([r.nz for r in a], [r.nz for r in b])
    m = shape(b)[1]
    # built by addition, so that every multiplication is of a nonzero pair
    zero = a[0].zero + b[0].zero if a and b and m else None
    return tuple(Row(m, zero, dict(sorted(acc.items()))) for acc in rows)


def signed_sums_equal(lhs, rhs) -> bool:
    """Whether the sums of c * A over the (c, A) terms of lhs and of rhs are equal; c = +-1.

    Each A is a sequence of rows given as {column: entry} dicts of nonzeros,
    as `product_rows` returns them or a Row stores them (`nz`).  Both sides
    are summed row by row in the linear-combination loop and compared as
    they are; no matrix is built, and an empty sum is zero.
    """
    terms = (*lhs, *rhs)
    if any(c != 1 and c != -1 for c, _ in terms):
        raise ValueError(f"coefficients {[c for c, _ in terms]!r} are not all +-1")
    sizes = {len(rows) for _, rows in terms}
    if len(sizes) > 1:
        raise ValueError(f"row count mismatch {sorted(sizes)}")
    n = max(sizes, default=0)
    return all(_combination_row(lhs, i) == _combination_row(rhs, i) for i in range(n))


def sum_of_products(terms: Iterable[tuple[T, Sequence[Matrix]]], n: int, one: T) -> Matrix:
    """The n x n matrix sum of c * (M_1 ... M_k) over the (c, [M_1, ..., M_k]) terms.

    An empty product is the identity and an empty sum the zero matrix over the
    ring of `one`.  A product's last factor comes in through `product_rows`,
    and all terms are summed in one pass of the linear-combination loop, a
    term with c = +-1 with no scaling; each result row is sorted once.
    """
    summands = []
    for c, factors in terms:
        if not factors:
            rows = [{i: one} for i in range(n)]
        elif (size := (len(factors[0]), shape(factors[-1])[1])) != (n, n):
            raise ValueError(f"shape mismatch {size} vs {(n, n)}")
        elif len(factors) == 1:
            rows = [r.nz for r in factors[0]]
        else:
            prod = factors[0]
            for f in factors[1:-1]:
                prod = matmul(prod, f)
            _check_product(prod, factors[-1])
            rows = product_rows([r.nz for r in prod], [r.nz for r in factors[-1]])
        summands.append((c, rows))
    return _combination(summands, n, n, one - one)


def equal(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(ra.nz == rb.nz for ra, rb in zip(a, b))


def first_difference(a: Matrix, b: Matrix) -> tuple[int, int] | None:
    """The first (row, column) where a and b differ, or None; shapes must match."""
    _check_shapes(a, b)
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra.nz != rb.nz:
            for j in sorted(ra.nz.keys() | rb.nz.keys()):
                if ra[j] != rb[j]:
                    return i, j
    return None


def is_scalar_matrix(a: Matrix) -> bool:
    n, m = shape(a)
    if n != m or n == 0:
        return False
    d = a[0][0]
    return all(row.nz == ({i: d} if d else {}) for i, row in enumerate(a))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b exactly; a is m x n with m >= n and full column rank.

    Pivots must be invertible ring elements (relevant when p is a perfect
    square and Q[s]/(s^2 - p) has zero divisors).  Raises SingularMatrixError
    when no invertible pivot exists and InconsistentSystemError when the
    system has no solution.
    """
    (m, n), (mb, q) = shape(a), shape(b)
    if m != mb:
        raise ValueError("row count mismatch between matrix and right-hand side")
    # the rows of [a | b], the columns of b shifted by n
    rows = [ra.nz | {n + j: y for j, y in rb.nz.items()} for ra, rb in zip(a, b)]
    for c in range(n):
        for r in range(c, m):
            try:
                pinv = rows[r][c].inverse()
                break
            except (KeyError, NotInvertibleError):  # no entry, or a zero divisor
                pass
        else:
            raise SingularMatrixError(f"no invertible pivot in column {c}")
        rows[c], rows[r] = rows[r], rows[c]
        pivot = rows[c] = {j: pinv * x for j, x in rows[c].items()}
        for row in rows:
            if row is not pivot and (f := row.get(c)) is not None:
                for j, y in pivot.items():
                    if v := row[j] - f * y if j in row else -(f * y):
                        row[j] = v
                    else:
                        row.pop(j, None)
    if any(row for row in rows[n:]):
        raise InconsistentSystemError("system has no exact solution")
    zero = a[0].zero + b[0].zero if n and q else None
    return sparse(q, zero, ({j - n: x for j, x in row.items() if j >= n} for row in rows[:n]))

