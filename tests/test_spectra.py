import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import q2rep
from q2rep import linalg
from q2rep.models import Model, ModelSpec, expression_matrix
from q2rep.rep import Basis, change_of_basis
from q2rep.scalars import ExtScalar, ext
from q2rep.spectra import (
    ExactEig,
    decompose,
    eigenvalues_exact_small,
    eigenvalues_numeric,
    spectrum_of_matrix,
    values_close,
)


def frac_matrix(rows, p=2):
    return tuple(tuple(ext(p, Fraction(x)) for x in row) for row in rows)


def test_decompose_moszkowski_p2():
    m = expression_matrix(ModelSpec(Model.MOSZKOWSKI, 2, {"c": Fraction(0), "V": Fraction(1)}))
    dec = decompose(m)
    assert dec.blocks == ((0,), (1, 2), (3,))


def test_decompose_diagonal():
    m = frac_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert decompose(m).blocks == ((0,), (1,), (2,))


def test_decompose_dense():
    m = frac_matrix([[1, 1], [1, 1]])
    assert decompose(m).blocks == ((0, 1),)


def test_exact_2x2():
    eigs = eigenvalues_exact_small(frac_matrix([[2, 2], [2, 2]]))
    assert sorted(e.value() for e in eigs) == [0.0, 4.0]
    assert {e.exact_text() for e in eigs} == {"0", "4"}


def test_exact_1x1():
    eigs = eigenvalues_exact_small(frac_matrix([[Fraction(-7, 3)]]))
    assert eigs[0].base == Fraction(-7, 3)


def test_exact_radical_block():
    # [[0, -2], [-2 k2, 0]] has eigenvalues +-2k with k = sqrt(k2)
    k2 = Fraction(1, 2)
    eigs = eigenvalues_exact_small(frac_matrix([[0, -2], [-2 * k2, 0]]))
    texts = sorted(e.exact_text() for e in eigs)
    assert texts == ["0 + sqrt(2)", "0 - sqrt(2)"] or texts == ["0 - sqrt(2)", "0 + sqrt(2)"]
    values = sorted(e.value() for e in eigs)
    assert values_close(values[0], -(2**0.5)) and values_close(values[1], 2**0.5)


def test_negated_exact_eig():
    # sphaleron mode eigenvalues print as -eig(Delta)
    e = ExactEig(Fraction(-5, 2), 1, Fraction(13, 4))
    assert (-e).exact_text() == "5/2 - sqrt(13/4)"
    assert (-e).value() == -e.value()
    assert (-ExactEig(Fraction(3), 0, Fraction(0))).exact_text() == "-3"


def test_exact_eig_value_does_not_cancel():
    # 10^8 - sqrt(10^16 - 1) = 1 / (10^8 + sqrt(10^16 - 1)), about 5e-9; the
    # radicand rounds to 10^16 as a float, so base + sign*sqrt would give 0.0
    e = ExactEig(Fraction(10**8), -1, Fraction(10**16 - 1))
    with localcontext() as ctx:
        ctx.prec = 50
        want = float(1 / (Decimal(10**8) + Decimal(10**16 - 1).sqrt()))
    for got, target in ((e.value(), want), ((-e).value(), -want)):
        assert abs(got - target) <= 1e-15 * abs(target)


@pytest.mark.parametrize(
    "base, sign, radicand",
    [(0, 0, 0), (0, -1, 0), (0, 1, 0), (-1, 1, 1), (1, -1, 1),
     (Fraction(3, 2), -1, Fraction(9, 4))],
)
def test_exact_zero_eig_value_is_positive_zero(base, sign, radicand):
    e = ExactEig(Fraction(base), sign, Fraction(radicand))
    for v in (e.value(), (-e).value()):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0


def test_exact_rejects_irrational_entries():
    m = ((ExtScalar.sqrt_p(2),),)
    with pytest.raises(ValueError):
        eigenvalues_exact_small(m)


def test_numeric_identity():
    vals = eigenvalues_numeric(linalg.ext_identity(4, 3))
    assert all(values_close(z.real, 1.0) and abs(z.imag) < 1e-12 for z in vals)


def test_numeric_matches_exact():
    m = frac_matrix([[2, 2], [2, 2]])
    numeric = sorted(z.real for z in eigenvalues_numeric(m))
    exact = sorted(e.value() for e in eigenvalues_exact_small(m))
    assert all(values_close(a, b) for a, b in zip(numeric, exact))


def test_charpoly_crosscheck_runs():
    # a 3x3 block exercises the characteristic-polynomial validation path
    m = frac_matrix([[1, 1, 0], [1, 2, 1], [0, 1, 3]])
    vals = eigenvalues_numeric(m)
    assert len(vals) == 3


def test_spectrum_counts_match_dimension():
    for p in (1, 2, 3, 4):
        m = expression_matrix(
            ModelSpec(Model.MOSZKOWSKI, p, {"c": Fraction(1, 3), "V": Fraction(2, 7)})
        )
        blocks = spectrum_of_matrix(m)
        assert sum(len(bs.numeric) for bs in blocks) == 2 * p


def test_similarity_invariance():
    # conjugating by a change of basis leaves the spectrum fixed to 1e-9
    for p in (2, 3):
        spec = ModelSpec(Model.MOSZKOWSKI, p, {"c": Fraction(1, 2), "V": Fraction(1)})
        m = expression_matrix(spec)  # mu basis
        t = change_of_basis(Basis.MU, Basis.LAMBDA_CHI, p)
        ti = change_of_basis(Basis.LAMBDA_CHI, Basis.MU, p)
        m_lc = linalg.matmul(t, linalg.matmul(m, ti))
        a = sorted(z.real for bs in spectrum_of_matrix(m) for z in bs.numeric)
        b = sorted(z.real for bs in spectrum_of_matrix(m_lc) for z in bs.numeric)
        assert all(values_close(x, y) for x, y in zip(a, b))


def test_package_import_loads_no_numpy_or_sympy():
    # numpy loads only with spectra and cli, and no module loads sympy; importing
    # them with the package raises the verify sweep's peak RSS by about 1 MB
    src = str(Path(q2rep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, q2rep, q2rep.reduction; print(sorted({'numpy', 'sympy'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
