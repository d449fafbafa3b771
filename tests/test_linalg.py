"""The zero-skipping kernels against a naive dense reference.

Matrices are drawn with about 70% zero entries over Fraction, over
Q[sqrt(p)] at p = 2 and at p = 4 (a perfect square, so nonzero elements can
multiply to zero) and over the multi-radical scalars of so(4).  Every entry
must equal the reference exactly and have the reference's type (and p).
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q2rep import linalg
from q2rep.algebra import B_MINUS, B_PLUS, E00_1, F_PLUS, GENERATORS
from q2rep.rep import Basis, rep_matrix
from q2rep.scalars import ExtScalar, ext
from q2rep.so4 import RAD_ZERO, Radical

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero_rationals = rationals.filter(bool)

# p = 4: (2 + s)(2 - s) = 4 - s^2 = 0
ZERO_DIVISORS_P4 = [ext(4, 2, 1), ext(4, 2, -1), ext(4, -1, Fraction(1, 2)), ext(4, 3, Fraction(-3, 2))]

RINGS = {
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
sizes = st.integers(1, 4)


def entries(ring: str):
    zero, nonzero = RINGS[ring]
    return st.tuples(st.integers(0, 9), nonzero).map(lambda t: zero if t[0] < 7 else t[1])


def matrices(ring: str, n: int, m: int):
    row = st.lists(entries(ring), min_size=m, max_size=m).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


def ring_and_shapes():
    return st.tuples(st.sampled_from(sorted(RINGS)), sizes, sizes, sizes)


def assert_same(got, want):
    assert linalg.shape(got) == linalg.shape(want)
    for got_row, want_row in zip(got, want):
        for x, y in zip(got_row, want_row):
            assert type(x) is type(y) and x == y, (x, y)


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
    for c, a in (
        (data.draw(rationals), data.draw(matrices("ext-p2", n, m))),
        (data.draw(entries("ext-p2")), data.draw(matrices("fraction", n, m))),
    ):
        assert_same(linalg.scale(c, a), tuple(tuple(c * x for x in row) for row in a))


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


def test_shape_mismatch_raises():
    z = Fraction(0)
    a = ((z, z, z), (z, z, z))  # 2 x 3
    with pytest.raises(ValueError):
        linalg.matmul(a, a)
    with pytest.raises(ValueError):
        linalg.add(a, linalg.transpose(a))
    with pytest.raises(ValueError):
        linalg.sub(a, a[:1])


@pytest.mark.parametrize("p", [1, 3, 4])
def test_all_zero_product_keeps_ext_type(p):
    a = linalg.ext_zeros(3, 2, p)
    b = linalg.ext_zeros(2, 4, p)
    out = linalg.matmul(a, b)
    assert linalg.shape(out) == (3, 4)
    assert all(type(x) is ExtScalar and x.p == p and not x for row in out for x in row)


def test_zero_divisor_product_is_an_ext_zero():
    # (2 + s)(2 - s) = 0 at p = 4
    out = linalg.matmul(((ext(4, 2, 1), ext(4, 0)),), ((ext(4, 2, -1),), (ext(4, 0),)))
    assert out == ((ext(4, 0),),) and out[0][0].p == 4


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
    assert linalg.equal(out, naive_matmul(a, b, ExtScalar.zero(p)))


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
