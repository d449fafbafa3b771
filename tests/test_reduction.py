import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from q2rep import reduction
from q2rep.models import SPHALERON_MODELS, ModelSpec, raw_matrix
from q2rep.reduction import ReductionError, derived_matrix, sector_caps

K2_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
SECTORS = sorted(SPHALERON_MODELS.values())


def test_sector_caps():
    assert sector_caps(43, 3) == (2, 2)
    assert sector_caps(51, 3) == (3, 1)
    assert sector_caps(51, 1) == (1, -1)


def test_p1_matrices_match_hand_reduction():
    for k2 in K2_GRID:
        d = 1 + k2
        assert derived_matrix(43, 1, k2) == ((0, 2), (-6 * k2, -4 * d))
        assert derived_matrix(44, 1, k2) == ((-d, 0), (-4 * k2, -3 * d))
        assert derived_matrix(50, 1, k2) == ((d, 2), (0, -d))
        assert derived_matrix(51, 1, k2) == ((0, -2), (-2 * k2, 0))


def _assert_operators_match_derivation(p, k2s=K2_GRID):
    for model, case in SPHALERON_MODELS.items():
        for k2 in k2s:
            rm = raw_matrix(ModelSpec(model, p, {"k2": k2}))
            assert all(x.is_rational() for row in rm for x in row)
            got = tuple(tuple(x.rat for x in row) for row in rm)
            assert got == derived_matrix(case, p, k2), (model, p, k2)


def test_closed_form_operators_match_derivation():
    """The packaged operators agree with the from-scratch substitution."""
    for p in (1, 2, 3, 5, 6):
        _assert_operators_match_derivation(p)


def test_closed_form_operators_match_derivation_p4():
    _assert_operators_match_derivation(4)


@pytest.mark.parametrize("p", (8, 16, 32, 64))
def test_closed_form_operators_match_derivation_at_high_p(p):
    k2s = (*K2_GRID, Fraction(3, 5)) if p == 8 else (Fraction(3, 5),)
    _assert_operators_match_derivation(p, k2s)


def test_each_operator_is_conjugated_once(monkeypatch):
    # D40 and D41 are conjugated once per matrix; lam = 1 only adds lam * den to n0
    calls = []
    conjugated = reduction._conjugated
    monkeypatch.setattr(reduction, "_conjugated", lambda *a: calls.append(a) or conjugated(*a))
    for case in SECTORS:
        calls.clear()
        derived_matrix(case, 3, Fraction(3, 5))
        assert len(calls) == 2, case


def _fraction_ops(monkeypatch, p):
    """Fraction arithmetic calls made by the four sector matrices at p, k2 = 3/5."""
    count = [0]

    def counted(method):
        def wrapper(*args):
            count[0] += 1
            return method(*args)
        return wrapper

    with monkeypatch.context() as m:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            m.setattr(Fraction, name, counted(getattr(Fraction, name)))
        for case in SECTORS:
            derived_matrix(case, p, Fraction(3, 5))
    return count[0]


def test_oracle_work_grows_linearly_in_p(monkeypatch):
    # each monomial column touches a bounded number of nonzero coefficients,
    # so doubling p at most about doubles the arithmetic
    assert _fraction_ops(monkeypatch, 32) <= 2.1 * _fraction_ops(monkeypatch, 16)


def test_unit_factors_cost_no_fraction_product(monkeypatch):
    # ONE, X and +-1 shift degrees or flip signs; a general product is unchanged
    pol = {0: Fraction(2, 3), 3: Fraction(-1, 5)}
    products = [0]
    mul = Fraction.__mul__

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counted)
    monkeypatch.setattr(Fraction, "__rmul__", counted)
    shifted = {1: Fraction(-2, 3), 4: Fraction(1, 5)}
    assert reduction._mul(pol, reduction.ONE) == pol
    assert reduction._mul(pol, reduction.X, -1) == shifted
    assert reduction._mul(reduction.X, pol, 1, Fraction(-1)) == shifted
    assert products[0] == 0
    assert reduction._mul(pol, {0: Fraction(1), 1: Fraction(1)}, 3) == {
        0: 2, 1: 2, 3: Fraction(-3, 5), 4: Fraction(-3, 5)}
    assert products[0] == 4 + 4
    assert all(type(c) is Fraction for c in reduction._mul(reduction.ONE, -2, pol).values())


def test_unknown_sector_rejected():
    with pytest.raises(KeyError):
        derived_matrix(45, 2, Fraction(0))


@pytest.mark.parametrize("case", SECTORS)
def test_wrong_theta2_violates_the_degree_cap(monkeypatch, case):
    theta2 = reduction._CASES[case]["theta2"]
    monkeypatch.setitem(reduction._CASES[case], "theta2", lambda p: theta2(p) + 2)
    for p in (2, 3):
        with pytest.raises(ReductionError, match="degree cap violated"):
            derived_matrix(case, p, Fraction(3, 5))


def test_flipped_coupling_leaves_a_pole(monkeypatch):
    # with the sign of the coupling flipped, the 1/x poles of case 43 no longer cancel
    monkeypatch.setattr(reduction, "COUPLING", -reduction.COUPLING)
    with pytest.raises(ReductionError, match=r"upper row \(case 43\) is not polynomial"):
        derived_matrix(43, 2, Fraction(3, 5))


@pytest.mark.parametrize("case", SECTORS)
def test_lam_off_the_identity_is_refused(monkeypatch, case):
    # at lam = 1 the upper row gains an extra pol_p, so lam pairs with 2 on the upper diagonal
    sector_rows = reduction._sector_rows

    def skewed(case, p, k2):
        rows = sector_rows(case, p, k2)

        def shifted(pol_p, pol_q, lam):
            up, low = rows(pol_p, pol_q, lam)
            return (reduction._add(up, pol_p) if lam == 1 else up), low

        return shifted

    monkeypatch.setattr(reduction, "_sector_rows", skewed)
    with pytest.raises(ReductionError, match="lam does not pair with the identity"):
        derived_matrix(case, 2, Fraction(3, 5))


def test_oracle_imports_only_the_standard_library():
    tree = ast.parse(Path(reduction.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names = [node.module]
        else:
            continue
        assert all(name.split(".")[0] in sys.stdlib_module_names for name in names), names
