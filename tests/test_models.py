import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_rational
from q2rep import linalg, models
from q2rep.diffop import Poly, PolyPair, apply, realization_caps
from q2rep.models import (
    ConstraintError,
    Model,
    ModelSpec,
    NoClosedFormError,
    SPHALERON_MODELS,
    closed_form_blocks,
    closed_form_spectrum,
    expression_matrix,
    generator_expression,
    model_basis,
    raw_matrix,
    raw_operator,
)
from q2rep.rep import Basis, gram_matrix
from q2rep.scalars import ExtScalar, ext
from q2rep.spectra import spectrum_of_matrix, values_close

K2_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))


def mosz(p, c, v):
    return ModelSpec(Model.MOSZKOWSKI, p, {"c": Fraction(c), "V": Fraction(v)})


def jc(p, omega, g):
    return ModelSpec(Model.JAYNES_CUMMINGS, p, {"omega": Fraction(omega), "g": Fraction(g)})


def test_moszkowski_raw_action_example():
    # p = 2, c = 0, V = 1: H mu_1 = 2 mu_1 + 2 mu_2 on mu_1 = (x, 0)
    spec = mosz(2, 0, 1)
    op = raw_operator(spec)
    caps = realization_caps(2, 2)
    out = apply(op, PolyPair(Poly.monomial(2, 1), Poly.zero(2), caps))
    assert out.upper == Poly(2, [0, 2]) and out.lower == Poly(2, [2])


def test_sphaleron51_p1_matrix():
    for k2 in K2_GRID:
        m = raw_matrix(ModelSpec(Model.SPHALERON_51, 1, {"k2": k2}))
        assert [[x.rat for x in row] for row in m] == [[0, -2], [-2 * k2, 0]]


def test_jc_p1_lambda1_eigenvector():
    spec = jc(1, 1, Fraction(1, 10))
    m = expression_matrix(spec)
    # Lam_1 is an eigenvector with eigenvalue E_1^+ = (p-1) g / 2 = 0
    assert m[0][1] == 0 and m[1][1] == 0
    # and the matrix is diag(omega + g, 0)
    assert m[0][0] == ext(1, Fraction(11, 10)) and m[1][0] == 0


def test_moszkowski_expression_contains_vp2_constant():
    spec = mosz(3, Fraction(1, 2), Fraction(2, 5))
    consts = [c for c, factors in generator_expression(spec) if not factors]
    assert ext(3, Fraction(2, 5) * Fraction(9, 2)) in consts


def test_sphaleron_lambda_term_is_identity_shift():
    for model in SPHALERON_MODELS:
        for p in (1, 2, 3):
            base = ModelSpec(model, p, {"k2": Fraction(1, 2)})
            shifted = ModelSpec(model, p, {"k2": Fraction(1, 2), "lambda": Fraction(5, 7)})
            ident = linalg.scale(ext(p, Fraction(5, 7)), linalg.ext_identity(2 * p, p))
            assert linalg.equal(
                expression_matrix(shifted), linalg.add(expression_matrix(base), ident)
            )
            assert linalg.equal(raw_matrix(shifted), linalg.add(raw_matrix(base), ident))


def test_moszkowski_block_entries_p2():
    m = expression_matrix(mosz(2, 0, 1))
    rows = [[x.rat for x in row] for row in m]
    assert rows[0][0] == 2 and rows[3][3] == 2
    assert [rows[1][1], rows[1][2], rows[2][1], rows[2][2]] == [2, 2, 2, 2]


def test_rewrite_identity_all_models():
    """The generator expressions equal the raw operators, exactly."""
    from conftest import seeded_rng

    rng = seeded_rng()
    for p in range(1, 7):
        for model in SPHALERON_MODELS:
            for k2 in (*K2_GRID, abs(random_rational(rng))):
                spec = ModelSpec(model, p, {"k2": k2})
                assert linalg.equal(expression_matrix(spec), raw_matrix(spec)), (model, p, k2)
        for _ in range(3):
            spec = mosz(p, random_rational(rng), random_rational(rng))
            assert linalg.equal(expression_matrix(spec), raw_matrix(spec)), (spec, p)
            spec = jc(p, random_rational(rng), random_rational(rng))
            assert linalg.equal(expression_matrix(spec), raw_matrix(spec)), (spec, p)


def test_moszkowski_closed_form_p2():
    values = sorted(e.value() for e in closed_form_spectrum(mosz(2, 0, 1)))
    assert values == [0.0, 2.0, 2.0, 4.0]


def test_jc_closed_form_p1():
    values = sorted(e.value() for e in closed_form_spectrum(jc(1, 1, Fraction(1, 10))))
    assert values == [0.0, 1.1]


def test_moszkowski_degenerate_v0():
    # V = 0: spectrum collapses to {0, +-c, 0}-type weights; matrix check
    c = Fraction(3, 5)
    spec = mosz(2, c, 0)
    m = expression_matrix(spec)
    eig = sorted(e.value() for e in closed_form_spectrum(spec))
    blocks = spectrum_of_matrix(m)
    computed = sorted(z.real for bs in blocks for z in bs.numeric)
    assert all(values_close(a, b) for a, b in zip(eig, computed))


def test_trace_det_identities_moszkowski():
    from conftest import seeded_rng

    rng = seeded_rng()
    for p in range(1, 9):
        for _ in range(5):
            c, v = random_rational(rng), random_rational(rng)
            spec = mosz(p, c, v)
            m = expression_matrix(spec)
            closed = closed_form_spectrum(spec)
            blocks = closed_form_blocks(spec)
            singles = {e.block: e for e in closed if e.sign == 0}
            assert m[0][0] == singles[0].base  # E0+ = pV - (1 - p/2) c
            last = 2 * p - 1
            assert m[last][last] == singles[p].base  # Ep+ = pV + (1 - p/2) c
            for k in range(1, p):
                i, j = blocks[k]
                tr = m[i][i] + m[j][j]
                det = m[i][i] * m[j][j] - m[i][j] * m[j][i]
                plus = next(e for e in closed if e.block == k and e.sign == 1)
                minus = next(e for e in closed if e.block == k and e.sign == -1)
                assert tr == ExtScalar.of(plus.base + minus.base, p)
                assert det == ExtScalar.of(plus.base * minus.base - plus.radicand, p)


def test_trace_det_identities_jc():
    from conftest import seeded_rng

    rng = seeded_rng()
    for p in range(1, 9):
        omega, g = random_rational(rng), random_rational(rng)
        spec = jc(p, omega, g)
        m = expression_matrix(spec)
        closed = closed_form_spectrum(spec)
        blocks = closed_form_blocks(spec)
        # Lam_0 and Lam_p are exact eigenvectors with the extremal eigenvalues
        n = 2 * p
        col0 = [m[i][0] for i in range(n)]
        assert col0[0] == omega * p + Fraction(p + 1, 2) * g
        assert all(not col0[i] for i in range(1, n))
        colp = [m[i][p] for i in range(n)]
        assert colp[p] == Fraction(p - 1, 2) * g
        assert all(not colp[i] for i in range(n) if i != p)
        for k in range(1, p):
            i, j = blocks[k]
            tr = m[i][i] + m[j][j]
            det = m[i][i] * m[j][j] - m[i][j] * m[j][i]
            plus = next(e for e in closed if e.block == k and e.sign == 1)
            minus = next(e for e in closed if e.block == k and e.sign == -1)
            assert tr == ExtScalar.of(plus.base + minus.base, p)
            assert det == ExtScalar.of(plus.base * minus.base - plus.radicand, p)


def test_hermiticity_surrogate_and_real_spectra():
    from conftest import seeded_rng

    rng = seeded_rng()
    for p in range(1, 7):
        c, v = random_rational(rng), random_rational(rng)
        m = expression_matrix(mosz(p, c, v))
        g = gram_matrix(Basis.MU, p)
        assert linalg.equal(linalg.matmul(g, m), linalg.matmul(linalg.transpose(m), g))
        omega, gg = random_rational(rng), random_rational(rng)
        mj = expression_matrix(jc(p, omega, gg))
        gj = gram_matrix(Basis.LAMBDA_CHI, p)
        assert linalg.equal(linalg.matmul(gj, mj), linalg.matmul(linalg.transpose(mj), gj))
        for matrix in (m, mj):
            for bs in spectrum_of_matrix(matrix):
                assert all(type(z) is float for z in bs.numeric)


def test_sphaleron_p1_case43_true_spectrum():
    """Mode eigenvalues of the p = 1 sector 43 system.

    The 2x2 system gives lam^2 - 4(1+k2) lam + 12 k2 = 0, i.e.
    lam = 2 + 2k2 +- 2 sqrt(1 - k2 + k2^2); cross-checked against the
    numeric solver.  (The acceptance suite asserts the same spectrum and
    records the +5k2 radicand only as an erratum; see test_acceptance.)
    """
    for k2 in K2_GRID:
        m = raw_matrix(ModelSpec(Model.SPHALERON_43, 1, {"k2": k2}))
        lams = sorted(-z.real for bs in spectrum_of_matrix(m) for z in bs.numeric)
        k2f = float(k2)
        root = math.sqrt(1 - k2f + k2f * k2f)
        want = sorted([2 + 2 * k2f - 2 * root, 2 + 2 * k2f + 2 * root])
        assert all(values_close(a, b) for a, b in zip(lams, want)), (k2, lams, want)


def test_sphaleron_p1_case51_spectrum():
    for k2 in K2_GRID:
        m = raw_matrix(ModelSpec(Model.SPHALERON_51, 1, {"k2": k2}))
        lams = sorted(-z.real for bs in spectrum_of_matrix(m) for z in bs.numeric)
        k = math.sqrt(float(k2))
        assert all(values_close(a, b) for a, b in zip(lams, sorted([2 * k, -2 * k])))


def test_jc_detuning_constraint_enforced():
    with pytest.raises(ConstraintError):
        ModelSpec(Model.JAYNES_CUMMINGS, 3, {"omega": Fraction(1), "omega0": Fraction(1), "g": Fraction(1, 10)})
    # satisfied constraint is accepted
    ModelSpec(
        Model.JAYNES_CUMMINGS,
        3,
        {"omega": Fraction(1), "omega0": Fraction(1) - Fraction(2, 10), "g": Fraction(1, 10)},
    )


def test_sphaleron_has_no_closed_form():
    with pytest.raises(NoClosedFormError):
        closed_form_spectrum(ModelSpec(Model.SPHALERON_43, 2, {"k2": Fraction(1)}))


def test_unknown_parameter_rejected():
    with pytest.raises(ConstraintError):
        ModelSpec(Model.MOSZKOWSKI, 2, {"c": Fraction(1), "bogus": Fraction(1)})


def test_model_bases():
    assert model_basis(Model.SPHALERON_43) is Basis.MU
    assert model_basis(Model.SPHALERON_51) is Basis.LAMBDA_CHI
    assert model_basis(Model.JAYNES_CUMMINGS) is Basis.THIRD


def test_expression_matrix_builds_each_generator_once(monkeypatch):
    calls = Counter()
    true_rep_matrices = models.rep_matrices

    def counted(gens, basis, p):
        gens = list(gens)
        calls[basis] += len(gens)
        return true_rep_matrices(gens, basis, p)

    monkeypatch.setattr(models, "rep_matrices", counted)
    expression_matrix(mosz(4, 1, Fraction(1, 2)))
    # Moszkowski uses e0_diff, e1_sum and e1_diff, and the last two share
    # e00_1 and e11_1: four generators, each built once in the model basis
    assert calls == {Basis.MU: 4}
