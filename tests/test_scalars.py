import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from q2rep.scalars import (
    ExactEig,
    ExtScalar,
    ExtensionMismatchError,
    FloatRangeError,
    NotInvertibleError,
    ext,
    inv_sqrt_p,
    rational_sqrt,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def ext_scalars(p: int):
    return st.builds(lambda a, b: ExtScalar(a, b, p), rationals, rationals)


def test_add_componentwise():
    assert ext(5, 1, 2) + ext(5, 3, -1) == ext(5, 4, 1)


def test_add_identity():
    x = ext(7, Fraction(2, 3), Fraction(-1, 5))
    assert x + ExtScalar.zero(7) == x


def test_add_cancellation():
    assert ext(3, Fraction(1, 2), Fraction(1, 3)) + ext(3, Fraction(1, 2), Fraction(-1, 3)) == 1


def test_defining_relation():
    s = ExtScalar.sqrt_p(3)
    assert s * s == 3


def test_norm_form():
    assert ext(2, 1, 1) * ext(2, 1, -1) == -1


def test_mul_expand():
    # (2 + s)(3 + 2s) with p = 5: (6 + 2*5) + (4 + 3)s
    assert ext(5, 2, 1) * ext(5, 3, 2) == ext(5, 16, 7)


def test_inverse_rational():
    assert ext(5, 2).inverse() == ext(5, Fraction(1, 2))


def test_inverse_sqrt():
    s = ExtScalar.sqrt_p(2)
    assert s.inverse() == ext(2, 0, Fraction(1, 2))
    assert s * s.inverse() == 1


def test_inverse_exists_for_nonzero_norm_even_with_square_p():
    x = ext(4, 1, 1)  # norm 1 - 4 = -3
    assert x * x.inverse() == 1


def test_zero_norm_not_invertible():
    with pytest.raises(NotInvertibleError):
        ext(4, 2, 1).inverse()  # norm 4 - 4 = 0


def test_mismatched_p_raises():
    with pytest.raises(ExtensionMismatchError):
        ext(2, 1) + ext(3, 1)
    with pytest.raises(ExtensionMismatchError):
        ext(2, 1) * ext(3, 1)


def test_to_float():
    assert ext(4, 1, 1).to_float() == pytest.approx(3.0)
    assert ext(2, 0, 1).to_float() == pytest.approx(1.41421356, rel=1e-8)
    assert ext(9, Fraction(-1, 2), Fraction(1, 2)).to_float() == pytest.approx(1.0)


def test_symbolic_for_square_p():
    # s stays symbolic: 2 + 0*s differs structurally from 0 + 1*s even at p = 4
    assert ext(4, 2, 0) != ext(4, 0, 1)
    assert ext(4, 0, 1).to_float() == pytest.approx(2.0)


def test_inv_sqrt_p():
    for p in range(1, 9):
        assert inv_sqrt_p(p) * ExtScalar.sqrt_p(p) == 1


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


@given(ext_scalars(5), ext_scalars(5), ext_scalars(5))
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(ext_scalars(7))
def test_field_property_nonsquare_p(x):
    if x:
        assert x * x.inverse() == 1


@given(ext_scalars(3), ext_scalars(3))
def test_float_embedding_is_homomorphic(x, y):
    assert (x + y).to_float() == pytest.approx(x.to_float() + y.to_float(), abs=1e-12)
    assert (x * y).to_float() == pytest.approx(x.to_float() * y.to_float(), rel=1e-12, abs=1e-12)


def test_hash_agrees_with_rational_equality():
    modulus = sys.hash_info.modulus
    for value in (0, 3, -7, 2 ** 70, Fraction(-7, 3), Fraction(5, 12), Fraction(1, modulus)):
        for p in (2, 4, 5):
            x = ext(p, value)
            assert x == value and hash(x) == hash(value)
    assert {ext(5, 3): "three"}[3] == "three"


@given(rationals)
def test_hash_of_rational_elements(r):
    assert hash(ext(5, r)) == hash(r) == hash(ext(5, r) * ExtScalar.sqrt_p(5) * inv_sqrt_p(5))


def test_hash_of_irrational_elements():
    x = ext(5, Fraction(1, 2), Fraction(-3, 4))
    same = ext(5, 1, Fraction(-3, 2)) * Fraction(1, 2)
    assert x == same and hash(x) == hash(same)
    assert hash(x) != hash(ext(2, Fraction(1, 2), Fraction(-3, 4)))
    assert len({x, same, ext(5, Fraction(1, 2)), Fraction(1, 2)}) == 2


# differential test against a reference kept as a pair of Fractions -----------

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def operands(p: int):
    """(value, reference pair): an int, a Fraction or an ExtScalar over p."""
    return st.one_of(
        st.integers(-4, 4).map(lambda n: (n, (Fraction(n), Fraction(0)))),
        small_rationals.map(lambda r: (r, (r, Fraction(0)))),
        st.tuples(small_rationals, small_rationals).map(
            lambda t: (ExtScalar(t[0], t[1], p), t)
        ),
    )


def ref_mul(x, y, p):
    return (x[0] * y[0] + p * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def assert_canonical(z, ref, p):
    assert type(z) is ExtScalar and z.p == p
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert type(z.rat) is Fraction and type(z.irr) is Fraction
    assert (z.rat, z.irr) == ref
    assert z.text() == ExtScalar(*ref, p).text() == f"{ref[0]} + {ref[1]}*sqrt({p})"
    assert bool(z) == (ref != (0, 0))


@given(st.sampled_from([2, 4, 5]).flatmap(lambda p: st.tuples(st.just(p), operands(p), operands(p))))
# zero divisors at p = 4: (2 + s)(2 - s) = 0
@example((4, (ext(4, 2, 1), (Fraction(2), Fraction(1))), (ext(4, 2, -1), (Fraction(2), Fraction(-1)))))
def test_arithmetic_matches_fraction_pair_reference(case):
    p, (x, rx), (y, ry) = case
    if isinstance(x, ExtScalar) or isinstance(y, ExtScalar):
        assert_canonical(x + y, (rx[0] + ry[0], rx[1] + ry[1]), p)
        assert_canonical(x - y, (rx[0] - ry[0], rx[1] - ry[1]), p)
        assert_canonical(x * y, ref_mul(rx, ry, p), p)
        assert (x == y) == (y == x) == (rx == ry)
    for z, rz in ((x, rx), (y, ry)):
        if not isinstance(z, ExtScalar):
            continue
        assert_canonical(z, rz, p)
        assert_canonical(-z, (-rz[0], -rz[1]), p)
        norm = rz[0] ** 2 - p * rz[1] ** 2
        if norm == 0:
            with pytest.raises(NotInvertibleError):
                z.inverse()
        else:
            assert_canonical(z.inverse(), (rz[0] / norm, -rz[1] / norm), p)


@given(
    st.sampled_from([2, 4, 5]),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(1, 40),
)
def test_from_triple_is_canonical(p, a, b, d):
    assert_canonical(ExtScalar.from_triple(a, b, d, p), (Fraction(a, d), Fraction(b, d)), p)
    for bad in (0, -d):
        with pytest.raises(ValueError):
            ExtScalar.from_triple(a, b, bad, p)


def unscaled_value(e: ExactEig) -> float:
    """base + sign*sqrt(radicand) from the unscaled terms; OverflowError where one overflows."""
    root = math.sqrt(e.radicand)
    if e.sign * e.base >= 0:
        return float(e.base) + e.sign * root
    num = e.base * e.base - e.radicand
    return float(num) / (float(e.base) - e.sign * root) if num else 0.0


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), st.integers(-60, 700),
    st.sampled_from([-1, 0, 1]),
    st.fractions(min_value=0, max_value=9, max_denominator=9), st.integers(-60, 700),
)
def test_scaling_keeps_the_bytes_of_every_float_that_was_finite(a, i, sign, r, j):
    # base a*2^i, radicand r*4^j: from i or j of about 500 on, the terms are scaled
    e = ExactEig(a * Fraction(2) ** i, sign, r * Fraction(4) ** j)
    try:
        before = unscaled_value(e)
    except OverflowError:
        return
    if math.isfinite(before):
        assert e.value().hex() == before.hex()


def decimal_value(e: ExactEig) -> Decimal:
    """base + sign*sqrt(radicand) to 60 digits, the cancelling sum as a quotient."""
    def dec(q):
        return Decimal(q.numerator) / Decimal(q.denominator)

    with localcontext() as ctx:
        ctx.prec = 60
        root = dec(e.radicand).sqrt()
        if e.sign * e.base >= 0:
            return dec(e.base) + e.sign * root
        return dec(e.base * e.base - e.radicand) / (dec(e.base) - e.sign * root)


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), st.integers(-1100, 1100),
    st.sampled_from([-1, 0, 1]),
    st.fractions(min_value=0, max_value=9, max_denominator=9), st.integers(-1100, 1100),
)
def test_value_is_the_float_of_the_exact_form_wherever_that_is_finite(a, i, sign, r, j):
    # base a*2^i and radicand r*4^j, each possibly far beyond the double range
    e = ExactEig(a * Fraction(2) ** i, sign, r * Fraction(4) ** j)
    want = decimal_value(e)
    if abs(want) > Decimal(sys.float_info.max) * Decimal("0.999"):
        if abs(want) > Decimal(sys.float_info.max) * Decimal("1.001"):
            with pytest.raises(FloatRangeError):
                e.value()
        return
    tolerance = max(abs(want) * Decimal("1e-15"), Decimal(2) ** -1074)
    assert abs(Decimal(e.value()) - want) <= tolerance
