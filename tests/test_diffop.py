from fractions import Fraction
from functools import partial
from itertools import product, zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q2rep import diffop, linalg, models
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
    space_dimension,
    supercommutator,
    to_matrix,
)
from q2rep.models import (
    Model, ModelSpec, model_space_realization, raw_operator, sector_matrix
)
from q2rep.rep import rep_matrix
from q2rep.scalars import ExtScalar, ExtensionMismatchError, ext


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


# sparse Poly against dense coefficient lists -----------------------------------

P_VALUES = (2, 3, 4)  # at p = 4, 2 + s and 2 - s are zero divisors: (2 + s)(2 - s) = 0


def coefficients(p):
    zero = ExtScalar.zero(p)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.one_of(
        st.just(zero),
        st.just(zero),
        st.sampled_from([ext(p, 2, 1), ext(p, 2, -1), ext(p, -1, Fraction(1, 2))]),
        st.builds(lambda a, b: ExtScalar(a, b, p), small, small),
    )


@st.composite
def operands(draw):
    """p and two dense coefficient lists; b negates a at some degrees, so a + b cancels there."""
    p = draw(st.sampled_from(P_VALUES))
    a = draw(st.lists(coefficients(p), max_size=8))
    b = [-c if draw(st.booleans()) else draw(coefficients(p)) for c in a]
    return p, a, b + draw(st.lists(coefficients(p), max_size=3))


def dense_add(a, b, zero):
    return [x + y for x, y in zip_longest(a, b, fillvalue=zero)]


def dense_mul(a, b, zero):
    out = [zero] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def dense_derivative(a, k):
    for _ in range(k):
        a = [a[i] * i for i in range(1, len(a))]
    return a


def assert_sparse_of(got, dense):
    """got stores exactly the nonzeros of the dense list, by ascending degree."""
    want = {d: c for d, c in enumerate(dense) if c}
    assert list(got.nz) == sorted(got.nz)
    assert all(got.nz.values())
    assert got.nz == want
    assert got.degree == max(want, default=-1)
    assert bool(got) == bool(want)


@given(operands())
def test_poly_add_matches_dense(args):
    p, a, b = args
    zero = ExtScalar.zero(p)
    assert_sparse_of(Poly(p, a) + Poly(p, b), dense_add(a, b, zero))
    assert_sparse_of(Poly(p, b) + Poly(p, a), dense_add(b, a, zero))
    assert_sparse_of(Poly(p, a) + -Poly(p, a), [])


@given(operands())
def test_poly_mul_matches_dense(args):
    p, a, b = args
    assert_sparse_of(Poly(p, a) * Poly(p, b), dense_mul(a, b, ExtScalar.zero(p)))


@given(operands(), st.data())
def test_poly_scaled_matches_dense(args, data):
    p, a, _ = args
    c = data.draw(st.one_of(coefficients(p), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)))
    assert_sparse_of(Poly(p, a).scaled(c), [ExtScalar.of(c, p) * x for x in a])
    assert_sparse_of(Poly(p, a) * c, [ExtScalar.of(c, p) * x for x in a])


@given(operands(), st.integers(min_value=0, max_value=3))
def test_poly_derivative_matches_dense(args, k):
    p, a, _ = args
    assert_sparse_of(Poly(p, a).derivative(k), dense_derivative(a, k))


def test_zero_divisor_product_is_the_zero_polynomial():
    p = 4
    prod = Poly(p, [ext(p, 2, 1)]) * Poly(p, [ext(p, 2, -1)])
    assert prod == Poly.zero(p) and prod.degree == -1 and not prod
    prod = Poly(p, [0, ext(p, 2, 1), 1]) * Poly(p, [0, 0, ext(p, 2, -1)])
    assert prod == Poly(p, [0, 0, 0, 0, ext(p, 2, -1)]) and prod.degree == 4
    assert Poly(p, [ext(p, 2, 1), 0, 1]).scaled(ext(p, 2, -1)).nz == {2: ext(p, 2, -1)}


@pytest.mark.parametrize("p", [1, 2, 4, 7])
def test_trailing_zeros_are_not_stored(p):
    assert Poly(p, [1, 0, 0]) == Poly(p, [1])
    assert Poly(p, [1, 0, 0]).degree == 0
    assert Poly(p, [0, 0]) == Poly.zero(p) and Poly(p, [0, 0]).degree == -1
    assert Poly.monomial(p, 5, 0) == Poly.zero(p)


def test_foreign_extension_fails_at_construction():
    with pytest.raises(ExtensionMismatchError):
        Poly(3, [ExtScalar(1, 1, 5)])
    with pytest.raises(ExtensionMismatchError):
        Poly(3, [1, 0, ext(5, 0)])  # a foreign zero too
    with pytest.raises(ExtensionMismatchError):
        Poly.monomial(3, 2, ext(5, 0, 1))
    with pytest.raises(ExtensionMismatchError):
        Poly(3, [1]) + Poly(5, [0, 1])
    with pytest.raises(ExtensionMismatchError):
        Poly(3, [1]) * Poly(5, [])


def test_sector_matrix_pays_only_for_nonzeros(monkeypatch):
    # applying the operator to 2p monomial carriers: about 960 scalar sums and
    # products at p = 32, where dense coefficient lists made 9,827
    calls = 0

    def counting(original):
        def counted(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        return counted

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(ExtScalar, name, counting(vars(ExtScalar)[name]))
    m = sector_matrix(ModelSpec(Model.SPHALERON_50, 32, {"k2": Fraction(3, 4)}))
    monkeypatch.undo()
    assert len(m) == 64
    assert 0 < calls <= 1_700


def monomial_carrier_cases():
    """(operator, carriers) pairs whose carriers are the monomial basis of their space."""
    for which, p, g in product((1, 2), range(1, 9), GENERATORS):
        carriers = realization_basis(which, p)
        yield f"realization {which} p={p} {g.name}", realization(which, g, p), carriers
    for model, p in product((Model.SPHALERON_44, Model.SPHALERON_50, Model.SPHALERON_51),
                            (*range(1, 9), 32)):
        spec = ModelSpec(model, p, {"k2": Fraction(3, 5)})
        carriers = realization_basis(model_space_realization(model), p)
        yield f"{model.value} p={p}", raw_operator(spec), carriers


def test_monomial_carriers_skip_the_solve_and_agree_with_it(monkeypatch):
    # on the monomial carriers to_matrix reads the coordinates off directly; in
    # reverse order the carriers' matrix is a permutation, so it solves
    solves = 0
    true_solve = linalg.solve

    def counting_solve(a, b):
        nonlocal solves
        solves += 1
        return true_solve(a, b)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    for where, op, carriers in monomial_carrier_cases():
        direct = to_matrix(op, carriers)
        assert solves == 0, where
        solved = to_matrix(op, carriers[::-1])
        assert solves == 1, where
        solves = 0
        assert [tuple(row) for row in solved] == [tuple(row)[::-1] for row in direct[::-1]], where


# the image loop against the derivative-then-product Poly algorithm ------------

def reference_apply(op, vec, out_caps=None):
    """apply as Poly arithmetic: route by the Pauli factor, differentiate, multiply, sum."""
    caps = vec.caps if out_caps is None else out_caps
    zero = Poly.zero(op.p)
    routes = {
        Pauli.S0: (vec.upper, vec.lower),
        Pauli.S3: (vec.upper, -vec.lower),
        Pauli.SP: (vec.lower, zero),
        Pauli.SM: (zero, vec.upper),
    }
    up = low = zero
    for (k, pauli), poly in op.terms.items():
        u, l = routes[pauli]
        up = up + poly * u.derivative(k)
        low = low + poly * l.derivative(k)
    return PolyPair(up, low, caps)


def reference_to_matrix(op, basis):
    """to_matrix from dense coordinate columns of the reference images and of the carriers."""
    caps = basis[0].caps
    zero = ExtScalar.zero(op.p)

    def coords(v):
        return [v.upper.nz.get(d, zero) for d in range(caps[0] + 1)] + [
            v.lower.nz.get(d, zero) for d in range(caps[1] + 1)
        ]

    bmat = linalg.transpose(linalg.freeze([coords(b) for b in basis]))
    imat = linalg.transpose(linalg.freeze([coords(reference_apply(op, b, caps)) for b in basis]))
    if linalg.equal(bmat, linalg.ext_identity(space_dimension(caps), op.p)):
        return imat
    try:
        return linalg.solve(bmat, imat)
    except linalg.InconsistentSystemError as exc:
        raise CapViolationError(str(exc)) from exc


def outcome(f):
    """f's result, or the CapViolationError class when it raises one."""
    try:
        return f()
    except CapViolationError:
        return CapViolationError


def assert_same_pair(got, want):
    if want is CapViolationError or got is CapViolationError:
        assert got is want
        return
    assert got.caps == want.caps
    for g, w in ((got.upper, want.upper), (got.lower, want.lower)):
        assert g.p == w.p and list(g.nz.items()) == list(w.nz.items())


def assert_same_matrix(got, want):
    if want is CapViolationError or got is CapViolationError:
        assert got is want
        return
    assert linalg.equal(got, want)
    for g, w in zip(got, want):
        assert len(g) == len(w) and list(g.nz) == sorted(g.nz) and all(g.nz.values())
        assert g.zero == w.zero


def kernel_coefficients(p):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.one_of(
        st.builds(lambda a: ExtScalar(a, 0, p), small),
        st.builds(lambda b: ExtScalar(0, b, p), small),
        st.builds(lambda a, b: ExtScalar(a, b, p), small, small),
        st.sampled_from([ext(p, 2, 1), ext(p, 2, -1)]),  # zero divisors at p = 4
    )


def kernel_ops(p):
    """Orders 0-2, every Pauli factor, coefficient polynomials of degree 0-3."""
    keys = st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(list(Pauli)))
    polys = st.lists(kernel_coefficients(p), min_size=1, max_size=4).map(lambda cs: Poly(p, cs))
    return st.dictionaries(keys, polys, max_size=3).map(lambda t: DiffOp(p, t))


def sector43_carriers(p):
    """The carriers of models.sector_matrix for sector 43."""
    caps, zero = realization_caps(2, p), Poly.zero(p)
    x = partial(Poly.monomial, p)
    carriers = [PolyPair(-x(k + 1), x(k), caps) for k in range(p - 1)]
    return carriers + [PolyPair(x(k), zero, caps) for k in range(p)] + [PolyPair(zero, x(p - 1), caps)]


@st.composite
def kernel_cases(draw):
    """(operator, carriers): a drawn operator plus one that keeps the carriers' space.

    The carriers are a monomial basis of drawn caps, realization 3's carriers,
    sector 43's carriers, or a monomial basis of caps (d, d) with c(x^2 D - d x)
    added, whose top-degree terms cancel on x^d.
    """
    p = draw(st.sampled_from([2, 4]))
    kind = draw(st.sampled_from(["monomial", "third", "sector43", "cancel"]))
    c = draw(kernel_coefficients(p))
    if kind == "monomial":
        caps = (draw(st.integers(0, 4)), draw(st.integers(-1, 4)))
        carriers, base = monomial_basis(p, caps), DiffOp.zero(p)
    elif kind == "third":
        carriers = realization_basis(3, p)
        base = realization(3, draw(st.sampled_from(GENERATORS)), p).scaled(c)
    elif kind == "sector43":
        carriers = sector43_carriers(p)
        base = raw_operator(ModelSpec(Model.SPHALERON_43, p, {"k2": Fraction(3, 5)})).scaled(c)
    else:
        d = draw(st.integers(0, 4))
        carriers = monomial_basis(p, (d, d))
        base = DiffOp.term(p, Poly.monomial(p, 2, c), 1) + DiffOp.term(p, Poly.monomial(p, 1, -d * c))
    return base + draw(kernel_ops(p)), carriers


@given(kernel_cases())
def test_image_loop_matches_the_poly_algorithm(case):
    """apply and to_matrix equal the reference, and raise CapViolationError exactly when it does."""
    op, carriers = case
    assert_same_matrix(outcome(lambda: to_matrix(op, carriers)),
                       outcome(lambda: reference_to_matrix(op, carriers)))
    for v in carriers:
        assert_same_pair(outcome(lambda: apply(op, v)), outcome(lambda: reference_apply(op, v)))


@given(st.sampled_from([2, 4]), st.data())
def test_apply_matches_the_poly_algorithm_on_any_vector(p, data):
    """Any coefficients, zero divisors at p = 4 included, and any target caps."""
    poly = st.lists(kernel_coefficients(p) | st.just(ExtScalar.zero(p)), max_size=5).map(
        lambda cs: Poly(p, cs)
    )
    vec = PolyPair(data.draw(poly), data.draw(poly), (4, 4))
    op = data.draw(kernel_ops(p))
    caps = (data.draw(st.integers(-1, 8)), data.draw(st.integers(-1, 8)))
    assert_same_pair(outcome(lambda: apply(op, vec, caps)),
                     outcome(lambda: reference_apply(op, vec, caps)))


# the ExtScalar additions and multiplications of the parent's Poly algorithm,
# per sphaleron sector at p = 32, k2 = 3/5
POLY_ALGORITHM_EXT_CALLS = {43: 3_153, 44: 1_514, 50: 1_262, 51: 1_640}


@pytest.mark.parametrize("case", sorted(POLY_ALGORITHM_EXT_CALLS))
def test_sector_to_matrix_builds_no_polynomial(monkeypatch, case):
    """to_matrix of a sector at p = 32 builds no Poly or PolyPair, and makes no
    more ExtScalar sums and products than the Poly algorithm made."""
    args = []
    monkeypatch.setattr(models, "to_matrix", lambda op, carriers: args.append((op, carriers)))
    sector_matrix(ModelSpec(Model(f"sphaleron{case}"), 32, {"k2": Fraction(3, 5)}))
    monkeypatch.undo()
    (op, carriers), = args
    built = calls = 0
    poly_init, new_poly, pair_post_init = Poly.__init__, diffop._poly, PolyPair.__post_init__

    def counted_build(f):
        def g(*a):
            nonlocal built
            built += 1
            return f(*a)

        return g

    def counted_op(f):
        def g(self, other):
            nonlocal calls
            calls += 1
            return f(self, other)

        return g

    monkeypatch.setattr(Poly, "__init__", counted_build(poly_init))
    monkeypatch.setattr(diffop, "_poly", counted_build(new_poly))
    monkeypatch.setattr(PolyPair, "__post_init__", counted_build(pair_post_init))
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(ExtScalar, name, counted_op(vars(ExtScalar)[name]))
    m = to_matrix(op, carriers)
    assert len(m) == 64 and built == 0
    assert 0 < calls <= POLY_ALGORITHM_EXT_CALLS[case]
    # the counters are live
    PolyPair(Poly.monomial(32, 1), Poly(32, [1]), (1, 0))
    assert built == 3
    before = calls
    assert ExtScalar.one(32) * 2 + 1 == 3 and calls == before + 2
