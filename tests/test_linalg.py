"""The sparse-row kernels against a naive dense reference.

Matrices are drawn as dense rows with about 70% zero entries over int
(the entries of verify's graded homomorphism sweep), Fraction, over
Q[sqrt(p)] at p = 2 and at p = 4 (a perfect square, so nonzero elements
can multiply to zero) and over the multi-radical scalars of so(4), and
frozen into sparse Rows (`linalg.freeze`), the one input format of the
Matrix kernels; `product_rows` takes their `nz` dicts.  Every entry of a
result's dense view must equal the reference exactly and have the
reference's type (and p).
"""

from fractions import Fraction
from itertools import cycle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q2rep import cli, linalg
from q2rep.algebra import B_MINUS, B_PLUS, E00_1, F_PLUS, GENERATORS
from q2rep.rep import Basis, rep_matrices, rep_matrix
from q2rep.scalars import ExtScalar, NotInvertibleError, ext
from q2rep.so4 import RAD_ZERO, Radical

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero_rationals = rationals.filter(bool)

# p = 4: (2 + s)(2 - s) = 4 - s^2 = 0
ZERO_DIVISORS_P4 = [ext(4, 2, 1), ext(4, 2, -1), ext(4, -1, Fraction(1, 2)), ext(4, 3, Fraction(-3, 2))]

RINGS = {
    "int": (0, st.integers(-9, 9).filter(bool)),
    "fraction": (Fraction(0), nonzero_rationals),
    "ext-p2": (
        ExtScalar.zero(2),
        st.builds(lambda a, b: ext(2, a, b), rationals, rationals).filter(bool),
    ),
    "ext-p4": (
        ExtScalar.zero(4),
        st.one_of(
            st.builds(lambda a, b: ext(4, a, b), rationals, rationals).filter(bool),
            st.sampled_from(ZERO_DIVISORS_P4),
        ),
    ),
    "radical": (
        RAD_ZERO,
        st.builds(
            lambda terms: Radical(dict(terms)),
            st.lists(st.tuples(st.sampled_from([1, 2, 3, 6]), nonzero_rationals),
                     min_size=1, max_size=2),
        ).filter(bool),
    ),
}
ONES = {
    "int": 1, "fraction": Fraction(1), "ext-p2": ExtScalar.one(2), "ext-p4": ExtScalar.one(4), "radical": Radical.rational(1)
}
sizes = st.integers(1, 4)


def entries(ring: str):
    zero, nonzero = RINGS[ring]
    return st.tuples(st.integers(0, 9), nonzero).map(lambda t: zero if t[0] < 7 else t[1])


def matrices(ring: str, n: int, m: int):
    """Kernel operands: n x m dense rows, frozen."""
    row = st.lists(entries(ring), min_size=m, max_size=m).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(linalg.freeze)


def ring_and_shapes():
    return st.tuples(st.sampled_from(sorted(RINGS)), sizes, sizes, sizes)


def assert_same(got, want):
    assert linalg.shape(got) == linalg.shape(want)
    for got_row, want_row in zip(got, want):
        for x, y in zip(got_row, want_row):
            assert type(x) is type(y) and x == y, (x, y)
            assert getattr(x, "p", None) == getattr(y, "p", None), (x, y)


def assert_canonical(m):
    """Kernel output: sparse rows storing only nonzeros, in ascending column."""
    for row in m:
        assert type(row) is linalg.Row
        assert list(row.nz) == sorted(row.nz) and all(row.nz.values())


def naive_matmul(a, b, zero):
    n, k = linalg.shape(a)
    m = linalg.shape(b)[1]
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def naive_entrywise(op, a, b):
    return tuple(tuple(op(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


@given(st.data(), ring_and_shapes())
def test_matmul_matches_triple_loop(data, case):
    ring, n, k, m = case
    a = data.draw(matrices(ring, n, k))
    b = data.draw(matrices(ring, k, m))
    assert_same(linalg.matmul(a, b), naive_matmul(a, b, RINGS[ring][0]))


@given(st.data(), ring_and_shapes())
def test_add_and_sub_match_entrywise(data, case):
    ring, n, m, _ = case
    a = data.draw(matrices(ring, n, m))
    b = data.draw(matrices(ring, n, m))
    assert_same(linalg.add(a, b), naive_entrywise(lambda x, y: x + y, a, b))
    assert_same(linalg.sub(a, b), naive_entrywise(lambda x, y: x - y, a, b))
    assert_same(linalg.sub(a, a), naive_entrywise(lambda x, y: x - y, a, a))


@given(st.data(), ring_and_shapes())
def test_scale_matches_entrywise(data, case):
    ring, n, m, _ = case
    a = data.draw(matrices(ring, n, m))
    c = data.draw(entries(ring))
    assert_same(linalg.scale(c, a), tuple(tuple(c * x for x in row) for row in a))


@given(st.data(), sizes, sizes)
def test_scale_mixing_rational_and_ext_gives_ext(data, n, m):
    # an ExtScalar +-1 equals the int +-1, yet must still give ExtScalar entries
    rational = linalg.freeze([(Fraction(0), Fraction(3, 2))])
    for c, a in (
        (data.draw(rationals), data.draw(matrices("ext-p2", n, m))),
        (data.draw(entries("ext-p2")), data.draw(matrices("fraction", n, m))),
        (ExtScalar.one(2), rational),
        (-ExtScalar.one(2), rational),
    ):
        assert_same(linalg.scale(c, a), tuple(tuple(c * x for x in row) for row in a))


def naive_sum_of_products(terms, n, one):
    """Dense: scale every entry of each product, then add it to the running sum."""
    zero = one - one
    ident = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    total = tuple(tuple(zero for _ in range(n)) for _ in range(n))
    for c, factors in terms:
        prod = ident
        for f in factors:
            prod = naive_matmul(prod, f, zero)
        total = naive_entrywise(lambda x, y: x + c * y, total, prod)
    return total


@given(st.data(), st.sampled_from(sorted(RINGS)), sizes)
def test_sum_of_products_matches_naive_fold(data, ring, n):
    # +-1 as int and as Fraction, any rational (0 included) and any ring element;
    # the factors come from a pool of up to three matrices, so terms repeat, and
    # the sum may end in -c M and c M, so that entries cancel on purpose
    # over int the coefficients are ints too: a Fraction one would turn the
    # naive fold's int entries into Fractions that the kernel never multiplies
    if ring == "int":
        coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9))
    else:
        units = st.sampled_from([1, -1, Fraction(1), Fraction(-1)])
        coeffs = st.one_of(units, rationals, RINGS[ring][1])
    pool = data.draw(st.lists(matrices(ring, n, n), min_size=1, max_size=3))
    term = st.tuples(coeffs, st.lists(st.sampled_from(pool), max_size=3))
    terms = data.draw(st.lists(term, max_size=4))
    if data.draw(st.booleans()):
        c, factors = data.draw(term)
        terms = [*terms, (-c, factors), (c, factors)]
    got = linalg.sum_of_products(terms, n, ONES[ring])
    assert_canonical(got)
    assert_same(got, naive_sum_of_products(terms, n, ONES[ring]))


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_empty_sum_and_empty_product(ring):
    one = ONES[ring]
    zero = RINGS[ring][0]
    empty = linalg.sum_of_products([], 3, one)
    assert_canonical(empty)
    assert_same(empty, ((zero,) * 3,) * 3)
    for c in (1, -1):
        ident = linalg.sum_of_products([(c, [])], 3, one)
        want = tuple(tuple(c * one if i == j else zero for j in range(3)) for i in range(3))
        assert_same(ident, want)


def test_unit_coefficients_are_not_multiplied(monkeypatch):
    """A coefficient +-1, int or ExtScalar, makes no ExtScalar product inside
    sum_of_products, add or sub, and one p = 4 homomorphism suite multiplies
    no ExtScalar by a plain +-1 (an int or Fraction coefficient)."""
    p = 4
    one = ExtScalar.one(p)
    units = [1, -1, one, -one]
    mats = {b: rep_matrices(GENERATORS, b, p) for b in Basis}
    inside = in_kernel = by_unit = 0
    mul = ExtScalar.__mul__

    def counted_kernel(kernel):
        def wrapper(*args):
            nonlocal inside
            inside += 1
            try:
                return kernel(*args)
            finally:
                inside -= 1
        return wrapper

    def counted_mul(self, other):
        nonlocal in_kernel, by_unit
        in_kernel += bool(inside)
        by_unit += isinstance(other, (int, Fraction)) and other in (1, -1)
        return mul(self, other)

    for name in ("sum_of_products", "add", "sub"):
        monkeypatch.setattr(linalg, name, counted_kernel(getattr(linalg, name)))
    monkeypatch.setattr(ExtScalar, "__mul__", counted_mul)
    monkeypatch.setattr(ExtScalar, "__rmul__", counted_mul)
    checks = list(cli._homomorphism_checks(p, mats))
    assert len(checks) == len(Basis) * len(GENERATORS) ** 2 and all(ok for _, ok in checks)
    for ms in mats.values():
        x, y, *_ = gens = list(ms.values())
        terms = [(c, [m]) for c, m in zip(cycle(units), gens)] + [(c, []) for c in units]
        linalg.sum_of_products(terms, 2 * p, one)
        linalg.add(x, y)
        linalg.sub(x, y)
    assert in_kernel == by_unit == 0
    # the counters are live: -1 * x is a unit product, and a coefficient 2 a scaling
    assert -1 * one == -one and by_unit == 1
    linalg.sum_of_products([(2, [rep_matrix(E00_1, Basis.MU, p)])], 2 * p, one)
    assert in_kernel > 0


def _row_dicts(m):
    return [row.nz for row in m]


@given(st.data(), st.sampled_from(["int", "fraction", "ext-p2", "ext-p4"]), sizes)
def test_signed_row_sums_agree_with_matrix_equality(data, ring, n):
    """signed_sums_equal on rows (product_rows, Row.nz) decides as the dense naive fold does.

    A term is +-1 times one matrix or a product of two.  The right side
    repeats the left side's terms in another order, and may add a pair that
    cancels, drop a term or flip a sign, so that entries cancel on purpose
    and the sums are often, but not always, equal.  Over p = 4 products of
    two nonzeros can vanish; product_rows must drop those entries.
    """
    pool = data.draw(st.lists(matrices(ring, n, n), min_size=1, max_size=3))
    unit = st.sampled_from([1, -1])
    term = st.tuples(unit, st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    lhs = data.draw(st.lists(term, min_size=1, max_size=4))
    rhs = data.draw(st.permutations(lhs))
    if data.draw(st.booleans()):
        c, factors = data.draw(term)
        rhs = [*rhs, (c, factors), (-c, factors)]
    if rhs and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rhs) - 1))
        c, factors = rhs[i]
        rhs[i:i + 1] = [] if data.draw(st.booleans()) else [(-c, factors)]

    def as_rows(terms):
        out = []
        for c, factors in terms:
            rows = _row_dicts(factors[0])
            if len(factors) == 2:
                rows = linalg.product_rows(rows, _row_dicts(factors[1]))
            assert all(all(row.values()) for row in rows)
            out.append((c, rows))
        return out

    one = ONES[ring]
    want = naive_sum_of_products(lhs, n, one) == naive_sum_of_products(rhs, n, one)
    assert linalg.signed_sums_equal(as_rows(lhs), as_rows(rhs)) == want


def test_vanishing_products_are_dropped():
    # over Q[sqrt(4)], (2 + s)(2 - s) = 0: the one product entry is not stored
    a = linalg.freeze(((ext(4, 2, 1), ext(4, 1)),))
    b = linalg.freeze(((ext(4, 2, -1),), (ext(4, 0),)))
    prod = linalg.product_rows(_row_dicts(a), _row_dicts(b))
    assert prod == [{}]
    assert linalg.signed_sums_equal([(1, prod)], [])
    assert not linalg.signed_sums_equal([(1, _row_dicts(a))], [(-1, _row_dicts(a))])
    with pytest.raises(ValueError):
        linalg.signed_sums_equal([(2, _row_dicts(a))], [])


@given(st.data(), ring_and_shapes())
def test_equal_and_first_difference(data, case):
    ring, n, m, _ = case
    a = data.draw(matrices(ring, n, m))
    b = data.draw(matrices(ring, n, m))
    diff = linalg.first_difference(a, b)
    assert linalg.equal(a, b) == (diff is None)
    if diff is not None:
        i, j = diff
        assert a[i][j] != b[i][j]
        assert all(a[r][c] == b[r][c] for r in range(n) for c in range(m) if (r, c) < diff)


@given(st.data(), ring_and_shapes())
def test_kernels_keep_all_zero_rows(data, case):
    ring, n, k, m = case
    zero = RINGS[ring][0]

    def draw(rows, cols):
        """A drawn matrix with a drawn set of its rows made all zero."""
        plain = data.draw(matrices(ring, rows, cols))
        blank = data.draw(st.sets(st.integers(0, rows - 1)))
        return linalg.freeze(
            tuple(zero for _ in row) if i in blank else row for i, row in enumerate(plain)
        )

    a, b, c = draw(n, k), draw(k, m), draw(n, k)
    s = data.draw(entries(ring))
    cases = [
        (linalg.matmul(a, b), naive_matmul(a, b, zero)),
        (linalg.add(a, c), naive_entrywise(lambda x, y: x + y, a, c)),
        (linalg.sub(a, c), naive_entrywise(lambda x, y: x - y, a, c)),
        (linalg.transpose(a), tuple(zip(*a))),
        (linalg.scale(s, a), tuple(tuple(s * x for x in row) for row in a)),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert_same(got, want)
    diff = linalg.first_difference(a, c)
    assert linalg.equal(a, c) == (diff is None) == (a == c)
    if diff is not None:
        i, j = diff
        assert a[i][j] != c[i][j]
        assert all(a[r][t] == c[r][t] for r in range(n) for t in range(k) if (r, t) < diff)


def naive_solve(a, b):
    """Dense Gauss-Jordan, taking the first invertible entry of a column as pivot."""
    m, n = linalg.shape(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        for r in range(c, m):
            try:
                inv = rows[r][c].inverse()
                break
            except NotInvertibleError:
                pass
        else:
            raise linalg.SingularMatrixError
        rows[c], rows[r] = rows[r], rows[c]
        rows[c] = [inv * x for x in rows[c]]
        for r in range(m):
            if r != c:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    if any(x for row in rows[n:] for x in row):
        raise linalg.InconsistentSystemError
    return tuple(tuple(row[n:]) for row in rows[:n])


@given(st.data(), st.sampled_from(["ext-p2", "ext-p4"]), sizes, sizes, st.integers(0, 2))
def test_solve_matches_dense_elimination(data, ring, n, q, extra):
    a = data.draw(matrices(ring, n + extra, n))
    if data.draw(st.booleans()):  # a shifted diagonal makes most systems solvable
        d = data.draw(RINGS[ring][1])
        a = linalg.freeze(
            tuple(x + d if i == j else x for j, x in enumerate(r)) for i, r in enumerate(a)
        )
    b = data.draw(matrices(ring, n + extra, q))
    if data.draw(st.booleans()):
        b = linalg.matmul(a, data.draw(matrices(ring, n, q)))

    def outcome(solve):
        try:
            return solve(a, b)
        except (linalg.SingularMatrixError, linalg.InconsistentSystemError) as exc:
            return type(exc)

    got, want = outcome(linalg.solve), outcome(naive_solve)
    if isinstance(want, type):
        assert got is want
    else:
        assert_canonical(got)
        assert_same(got, want)


def test_equal_compares_only_stored_nonzeros(monkeypatch):
    """Two separately built matrices: no pair of zeros reaches ExtScalar.__eq__."""
    p = 8
    pairs = [(rep_matrix(g, basis, p), rep_matrix(g, basis, p)) for basis in Basis for g in GENERATORS]
    stored = sum(len(row.nz) for a, _ in pairs for row in a)
    calls = 0
    original = ExtScalar.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(ExtScalar, "__eq__", counted)
    assert all(linalg.equal(a, b) for a, b in pairs)
    monkeypatch.undo()
    assert 0 < calls <= stored < len(pairs) * (2 * p) ** 2 // 8


def test_shape_mismatch_raises():
    z = Fraction(0)
    a = linalg.freeze(((z, z, z), (z, z, z)))  # 2 x 3
    with pytest.raises(ValueError):
        linalg.matmul(a, a)
    with pytest.raises(ValueError):
        linalg.add(a, linalg.transpose(a))
    with pytest.raises(ValueError):
        linalg.sub(a, a[:1])
    with pytest.raises(ValueError):
        linalg.sum_of_products([(1, [a]), (-1, [linalg.transpose(a)])], 2, Fraction(1))
    with pytest.raises(ValueError):  # 2 x 3 times 2 x 2: the last product does not fit
        linalg.sum_of_products([(1, [a, linalg.freeze(((z, z), (z, z)))])], 2, Fraction(1))
    # equal says False here, so first_difference must not say "no difference"
    two, three = linalg.ext_identity(2, 3), linalg.ext_identity(3, 3)
    assert not linalg.equal(two, three)
    with pytest.raises(ValueError):
        linalg.first_difference(two, three)


@pytest.mark.parametrize("p", [1, 3, 4])
def test_all_zero_product_keeps_ext_type(p):
    a = linalg.sparse(2, ExtScalar.zero(p), [{}] * 3)
    b = linalg.sparse(4, ExtScalar.zero(p), [{}] * 2)
    out = linalg.matmul(a, b)
    assert linalg.shape(out) == (3, 4)
    assert all(type(x) is ExtScalar and x.p == p and not x for row in out for x in row)


def test_zero_divisor_product_is_an_ext_zero():
    # (2 + s)(2 - s) = 0 at p = 4
    a = linalg.freeze(((ext(4, 2, 1), ext(4, 0)),))
    out = linalg.matmul(a, linalg.freeze(((ext(4, 2, -1),), (ext(4, 0),))))
    assert out == ((ext(4, 0),),) and out[0][0].p == 4
    # the zero a sum or a scaling reaches is dropped, leaving the shared zero
    minus_a = linalg.freeze(((ext(4, -2, -1), ext(4, 0)),))
    for out in (linalg.add(a, minus_a), linalg.scale(ext(4, 2, -1), a)):
        assert_canonical(out)
        assert not out[0].nz and all(type(x) is ExtScalar and x.p == 4 and not x for x in out[0])


@pytest.mark.parametrize("gx, gy", [(B_PLUS, B_MINUS), (F_PLUS, E00_1), (E00_1, E00_1)])
def test_matmul_multiplies_only_nonzero_pairs(monkeypatch, gx, gy):
    p = 8
    a = rep_matrix(gx, Basis.LAMBDA_CHI, p)
    b = rep_matrix(gy, Basis.LAMBDA_CHI, p)
    n = 2 * p
    pairs = sum(1 for i in range(n) for k in range(n) for j in range(n) if a[i][k] and b[k][j])
    calls = 0
    original = ExtScalar.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(ExtScalar, "__mul__", counted)
    out = linalg.matmul(a, b)
    monkeypatch.undo()
    assert calls <= pairs < n ** 3 // 4
    assert linalg.equal(out, linalg.freeze(naive_matmul(a, b, ExtScalar.zero(p))))


def test_ext_kernels_build_no_fraction(monkeypatch):
    """matmul, sub, scale and equal over Q[sqrt(4)] stay in integer arithmetic."""
    p = 4
    mats = [rep_matrix(g, Basis.LAMBDA_CHI, p) for g in GENERATORS]
    pairs = [(a, b) for a in mats for b in mats]
    scalars = (3, Fraction(-2, 3), ext(p, Fraction(1, 2), -1))
    built = 0

    def counting(original):
        def wrapper(*args, **kwargs):
            nonlocal built
            built += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting(Fraction.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 builds results here
        monkeypatch.setattr(
            Fraction, "_from_coprime_ints",
            classmethod(counting(Fraction._from_coprime_ints.__func__)),
        )
    assert Fraction(1, 2) and built == 1  # the wrapper is live
    built = 0
    for a, b in pairs:
        prod = linalg.matmul(a, b)
        diff = linalg.sub(prod, linalg.matmul(b, a))
        for c in scalars:
            linalg.scale(c, diff)
        linalg.equal(prod, diff)
    monkeypatch.undo()
    assert built == 0
