from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q2rep import linalg
from q2rep.algebra import B_MINUS, B_PLUS, E00_1, E11_1, F_MINUS, GENERATORS, SuperElement, bracket
from q2rep.diffop import (
    CapViolationError,
    DiffOp,
    Pauli,
    Poly,
    PolyPair,
    apply,
    compose,
    monomial_basis,
    realization,
    realization_basis,
    realization_basis_id,
    realization_caps,
    realization_matrix,
    realization_of_element,
    supercommutator,
    to_matrix,
)
from q2rep.rep import rep_matrix
from q2rep.scalars import ExtScalar


def test_apply_derivative():
    p = 2
    v = PolyPair(Poly.monomial(p, 2), Poly.monomial(p, 1), (2, 1))
    out = apply(DiffOp.term(p, [1], 1), v)
    assert out.upper == Poly(p, [0, 2]) and out.lower == Poly(p, [1])


def test_apply_sigma_plus_moves_lower_up():
    p = 2
    v = PolyPair(Poly.zero(p), Poly(p, [1]), (1, 0))
    out = apply(DiffOp.term(p, [0, 1], 0, Pauli.SP), v)
    assert out.upper == Poly(p, [0, 1]) and not out.lower


def test_real2_bplus_on_second_family():
    # b+ mu_{p+k} = mu_k + k mu_{p+k-1} on (0, x^k)
    p, k = 4, 2
    caps = realization_caps(2, p)
    v = PolyPair(Poly.zero(p), Poly.monomial(p, k), caps)
    out = apply(realization(2, B_PLUS, p), v)
    assert out.upper == Poly.monomial(p, k)
    assert out.lower == Poly(p, [0, k])


def test_cap_violation_raises():
    p = 2
    v = PolyPair(Poly.monomial(p, 1), Poly.zero(p), (1, 0))
    with pytest.raises(CapViolationError):
        apply(DiffOp.term(p, [0, 1]), v)  # multiply by x leaves P(1)


def test_compose_leibniz():
    p = 3
    d = DiffOp.term(p, [1], 1)
    x_op = DiffOp.term(p, [0, 1])
    assert compose(d, x_op) == DiffOp.term(p, [0, 1], 1) + DiffOp.term(p, [1])


def test_pauli_anticommutator():
    p = 3
    sp_ = DiffOp.term(p, [1], 0, Pauli.SP)
    sm = DiffOp.term(p, [1], 0, Pauli.SM)
    assert compose(sp_, sm) + compose(sm, sp_) == DiffOp.term(p, [1])


def small_polys(p):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.lists(coeff, max_size=3).map(lambda cs: Poly(p, cs))


def small_ops(p):
    keys = st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(list(Pauli)))
    return st.dictionaries(keys, small_polys(p), max_size=3).map(lambda t: DiffOp(p, t))


@given(small_ops(3), small_ops(3), small_polys(3), small_polys(3))
def test_compose_agrees_with_sequential_apply(a, b, up, low):
    vec = PolyPair(up, low, (30, 30))
    lhs = apply(compose(a, b), vec, (40, 40))
    rhs = apply(a, apply(b, vec, (35, 35)), (40, 40))
    assert lhs.upper == rhs.upper and lhs.lower == rhs.lower


def test_realization_formula_spot_checks():
    p = 5
    s = ExtScalar.sqrt_p(p)
    assert realization(2, F_MINUS, p) == DiffOp.term(p, [s], 0, Pauli.SM)
    assert realization(1, B_MINUS, p) == DiffOp.term(p, [1], 1)
    e1_diff = realization_of_element(
        3,
        SuperElement(p, {E00_1: ExtScalar.one(p), E11_1: -ExtScalar.one(p)}),
        p,
    )
    want = DiffOp.term(p, [-s], 0, Pauli.S3) + DiffOp.term(p, [0, 2 * s], 0, Pauli.SP)
    assert e1_diff == want


def test_identity_operator_matrix():
    p = 3
    basis = realization_basis(2, p)
    m = to_matrix(DiffOp.constant(p, 1), basis)
    assert linalg.equal(m, linalg.ext_identity(2 * p, p))


def test_realization_soundness_small():
    for p in (1, 2, 3):
        for which in (1, 2, 3):
            basis_id = realization_basis_id(which)
            for g in GENERATORS:
                assert linalg.equal(
                    realization_matrix(which, g, p), rep_matrix(g, basis_id, p)
                ), (p, which, g.name)


def test_operator_level_bracket_closure():
    for p in (2, 3):
        for which in (1, 2, 3):
            for gx, gy in product(GENERATORS, repeat=2):
                a = realization(which, gx, p)
                b = realization(which, gy, p)
                sc = supercommutator(a, b, bool(gx.parity and gy.parity))
                br = realization_of_element(
                    which, bracket(SuperElement.basis(gx, p), SuperElement.basis(gy, p)), p
                )
                assert sc == br, (p, which, gx.name, gy.name)


def test_space_preservation_monomials():
    for p in range(1, 9):
        for which in (1, 2):
            caps = realization_caps(which, p)
            for g in GENERATORS:
                op = realization(which, g, p)
                for v in monomial_basis(p, caps):
                    apply(op, v)


def test_third_realization_preserves_its_span():
    for p in range(1, 9):
        basis = realization_basis(3, p)
        for g in GENERATORS:
            to_matrix(realization(3, g, p), basis)  # solve fails if span leaks


def test_p1_degenerate_lower_space():
    # realization 1 at p = 1 acts on (P(1), {0}); the sigma- content must
    # always land on the zero polynomial
    p = 1
    caps = realization_caps(1, p)
    assert caps == (1, -1)
    for g in GENERATORS:
        for v in monomial_basis(p, caps):
            out = apply(realization(1, g, p), v)
            assert not out.lower


@pytest.mark.parametrize("which", [0, 4])
def test_unknown_realization_is_value_error(which):
    message = f"realization must be 1, 2 or 3, got {which}"
    with pytest.raises(ValueError, match=message):
        realization_caps(which, 2)
    with pytest.raises(ValueError, match=message):
        realization_basis_id(which)
    with pytest.raises(ValueError, match=message):
        realization(which, B_PLUS, 2)
