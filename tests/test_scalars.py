import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from q2rep.scalars import (
    ExtScalar,
    ExtensionMismatchError,
    NotInvertibleError,
    ext,
    inv_sqrt_p,
    parse_ext,
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


def test_text_roundtrip():
    x = ext(5, Fraction(-3, 4), Fraction(7, 2))
    assert parse_ext(x.text(), 5) == x
    assert x.as_pairs() == ((-3, 4), (7, 2))


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
    assert z.norm() == ref[0] ** 2 - p * ref[1] ** 2


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
