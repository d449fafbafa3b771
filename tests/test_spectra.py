import importlib.util
import json
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
from q2rep.cli import main, spectrum_payload
from q2rep.models import Model, ModelSpec, expression_matrix, raw_matrix, sector_matrix
from q2rep.rep import Basis, change_of_basis
from q2rep.scalars import ExtScalar, ext
from q2rep.spectra import (
    ExactEig,
    SolverError,
    decompose,
    eigenvalues_exact_small,
    eigenvalues_tridiagonal,
    spectrum_of_matrix,
    values_close,
)

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SECTORS = (43, 44, 50, 51)
# the k2 values of the benchmark's sphaleron references (perfbench/workloads.py)
K2_VALUES = tuple(Fraction(a, b) for a, b in ((3, 5), (2, 3), (3, 4), (4, 5), (5, 6)))
# det(tI - A) = t^3 - t^2 + t - 2 has discriminant -83: one real root and a complex pair
COMPLEX_PAIR_BLOCK = [[0, 2, 0], [-1, 0, 1], [0, 1, 1]]


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


def test_decompose_triangular_pattern_splits_into_strong_components():
    # connected, but no index reaches a smaller one: three diagonal blocks
    m = frac_matrix([[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    dec = decompose(m)
    assert dec.blocks == ((0,), (1,), (2,))
    assert [sub[0][0] for sub in dec.submatrices] == [ext(2, 1), ext(2, 4), ext(2, 6)]


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


def numeric_of(m):
    return [z for bs in spectrum_of_matrix(m) for z in bs.numeric]


def test_numeric_identity():
    vals = numeric_of(linalg.ext_identity(4, 3))
    assert len(vals) == 4
    assert all(values_close(z.real, 1.0) and type(z) is float for z in vals)


def test_numeric_matches_exact():
    m = frac_matrix([[2, 2], [2, 2]])
    numeric = sorted(z.real for z in numeric_of(m))
    exact = sorted(e.value() for e in eigenvalues_exact_small(m))
    assert all(values_close(a, b) for a, b in zip(numeric, exact))


def test_charpoly_crosscheck_runs():
    # a 3x3 block goes through the certified tridiagonal path
    m = frac_matrix([[1, 1, 0], [1, 2, 1], [0, 1, 3]])
    vals = numeric_of(m)
    assert len(vals) == 3
    # the eigenvalues are 2 and 2 +- sqrt(3); only 2 is rational
    assert [bs.exact for bs in spectrum_of_matrix(m)] == [(None, ExactEig(Fraction(2), 0, Fraction(0)), None)]
    want = [2 - math.sqrt(3), 2.0, 2 + math.sqrt(3)]
    assert all(values_close(z.real, w, 1e-12) and type(z) is float for z, w in zip(vals, want))


def test_an_integer_root_in_a_wide_final_bracket_is_exact():
    # with d = 2^53 the eigenvalue a is the integer root 2^53 + 1 of the charpoly
    # of d * block: a bracket narrow relative to it still holds many integers.
    # a is a rounding tie, and the even neighbour is 1.0
    a = 1 + Fraction(1, 2**53)
    [bs] = spectrum_of_matrix(frac_matrix([[a, 1, 0], [1, a, 1], [0, 1, a]]))
    assert bs.exact[1] is not None
    assert bs.exact[1].exact_text() == "9007199254740993/9007199254740992"
    assert bs.numeric[1] == 1.0
    assert bs.exact[0] is None and bs.exact[2] is None


def charpoly_sign(rows, t: Fraction) -> int:
    """The sign of det(t - B) for a tridiagonal Fraction block B, by the three-term recurrence."""
    prev, cur = 1, t - rows[0][0]
    for i in range(1, len(rows)):
        prev, cur = cur, (t - rows[i][i]) * cur - rows[i][i - 1] * rows[i - 1][i] * prev
    return (cur > 0) - (cur < 0)


@pytest.mark.parametrize("k2", [Fraction(1, 4), Fraction(3, 5)], ids=str)
@pytest.mark.parametrize("case", SECTORS)
def test_each_float_is_the_double_nearest_its_root(case, k2):
    # an irrational root rounds to v exactly when it lies between the midpoints
    # from v to its two neighbours, where the charpoly then changes sign
    for p in range(1, 17):
        m = sector_matrix(sphaleron_spec(case, p, k2))
        for bs in spectrum_of_matrix(m):
            rows = [[m[i][j].rat for j in bs.block] for i in bs.block]
            for v, e in zip(bs.numeric, bs.exact):
                if e is not None:
                    assert v == e.value()
                    continue
                below = (Fraction(v) + Fraction(math.nextafter(v, -math.inf))) / 2
                above = (Fraction(v) + Fraction(math.nextafter(v, math.inf))) / 2
                assert charpoly_sign(rows, below) * charpoly_sign(rows, above) < 0, (p, v)


def test_numeric_entries_are_floats():
    # 1x1, exact-radical 2x2 and tridiagonal blocks, including rational roots
    matrices = [
        frac_matrix([[1, 0, 0], [0, 2, 1], [0, 1, 3]]),
        frac_matrix([[1, 1, 0], [1, 2, 1], [0, 1, 3]]),
        sector_matrix(sphaleron_spec(44, 4, Fraction(3, 5))),
        sector_matrix(sphaleron_spec(50, 3, Fraction(7, 5))),
    ]
    for m in matrices:
        assert all(type(x) is float for bs in spectrum_of_matrix(m) for x in bs.numeric)


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
    # q2rep has no runtime dependency: no module, the CLI included, loads numpy or sympy
    src = str(Path(q2rep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, q2rep, q2rep.reduction, q2rep.spectra, q2rep.cli; "
        "print(sorted({'numpy', 'sympy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def load_reference_module():
    spec = importlib.util.spec_from_file_location("reference", PERFBENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sphaleron_spec(case, p, k2):
    return ModelSpec(Model(f"sphaleron{case}"), p, {"k2": k2})


def test_sector_spectra_match_the_benchmark_references():
    # 60 spectra: 4 sectors at p = 8, 16, 32 for 5 values of k2, against exact
    # roots known to about 1e-13 relative; the entries are keyed by raw_matrix
    reference = load_reference_module()
    shipped = json.loads((PERFBENCH / "references.json").read_text())
    for k2 in K2_VALUES:
        for p in (8, 16, 32):
            for case in SECTORS:
                spec = sphaleron_spec(case, p, k2)
                rows = [[x.rat for x in row] for row in raw_matrix(spec)]
                roots, n = shipped[reference.reference_key(rows)]
                got = sorted(z.real for z in numeric_of(sector_matrix(spec)))
                assert len(got) == len(roots) == n == 2 * p
                assert all(values_close(a, b) for a, b in zip(got, roots)), (case, p, k2)


@pytest.mark.parametrize("case", SECTORS)
def test_p64_spectrum_keeps_the_exact_traces(case):
    spec = sphaleron_spec(case, 64, Fraction(3, 5))
    raw = raw_matrix(spec)
    vals = [z.real for z in numeric_of(sector_matrix(spec))]
    assert len(vals) == 128
    tr = sum(raw[i][i].rat for i in range(128))
    tr2 = sum(x.rat * raw[j][i].rat for i, row in enumerate(raw) for j, x in row.nz.items())
    assert math.isclose(math.fsum(vals), tr, rel_tol=1e-12)
    assert math.isclose(math.fsum(v * v for v in vals), tr2, rel_tol=1e-12)


@pytest.mark.parametrize(
    "case, p, k2",
    [(case, p, Fraction(1)) for p in (2, 4, 6) for case in SECTORS] + [(50, 3, Fraction(7, 5))],
)
def test_rational_roots_print_exactly(case, p, k2):
    payload = spectrum_payload(sphaleron_spec(case, p, k2))
    assert len(payload["eigenvalues"]) == 2 * p
    exact = [e for e in payload["eigenvalues"] if e["exact"] is not None]
    for e in exact:
        assert e["float"] == float(Fraction(e["exact"]))
    if k2 == 1:
        # every mode eigenvalue is an integer at k2 = 1
        assert len(exact) == 2 * p
    else:
        # 192/5 is the one rational root; the rest are irrational cubic roots
        assert [e["exact"] for e in exact] == ["192/5"]


def test_complex_pair_block_raises():
    with pytest.raises(SolverError, match="no 3 real roots"):
        eigenvalues_tridiagonal(frac_matrix(COMPLEX_PAIR_BLOCK))
    # a triple root is not simple: the grid, one point wide at first, must still give up
    with pytest.raises(SolverError, match="no 3 real roots"):
        eigenvalues_tridiagonal(linalg.ext_identity(3, 2))
    with pytest.raises(SolverError, match=r"block \[0, 1, 2\]"):
        spectrum_of_matrix(frac_matrix(COMPLEX_PAIR_BLOCK))


def test_non_tridiagonal_block_raises():
    with pytest.raises(SolverError, match="not tridiagonal"):
        spectrum_of_matrix(frac_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))


def test_uncertified_sector_exits_1_with_nothing_on_stdout(monkeypatch, capsys):
    block = frac_matrix(COMPLEX_PAIR_BLOCK, p=2)
    monkeypatch.setattr("q2rep.cli.sector_matrix", lambda spec: block)
    code = main(["spectrum", "--model", "sphaleron", "--case", "44", "--k2", "3/5", "--p", "2"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "block [0, 1, 2]" in out.err


# lambda = -eig at k2 = 0, p = 4, sorted: (2r)^2 and (2r+1)^2 - 1 for 43, (2r+1)^2 and
# (2r)^2 - 1 for 44, (2r)^2 - 1 and (2r+1)^2 for 50, (2r)^2 and (2r+1)^2 - 1 for 51
K2_ZERO_P4 = {
    43: [0, 4, 8, 16, 24, 36, 48, 64],
    44: [1, 3, 9, 15, 25, 35, 49, 63],
    50: [-1, 1, 3, 9, 15, 25, 35, 49],
    51: [0, 0, 4, 8, 16, 24, 36, 48],
}


@pytest.mark.parametrize("case", SECTORS)
def test_tiny_k2_is_certified_near_the_k2_zero_closed_forms(capsys, case):
    # k2 = 10^-400 puts a Gershgorin width beyond the double range on the grid
    argv = ["--case", str(case), "--k2", f"1/{10**400}", "--p", "4"]
    code = main(["spectrum", "--model", "sphaleron", *argv])
    out = capsys.readouterr()
    assert code == 0, out.err
    got = sorted(e["float"] for e in json.loads(out.out)["eigenvalues"])
    assert len(got) == 8 and all(values_close(a, b) for a, b in zip(got, K2_ZERO_P4[case])), got


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "sphaleron", "--case", "50", "--k2", str(10**400)],
        ["--model", "moszkowski", "--c", str(10**400)],
        ["--model", "jc", "--omega", str(10**400)],
    ],
    ids=["sphaleron", "moszkowski", "jc"],
)
def test_an_eigenvalue_beyond_the_double_range_exits_2(capsys, argv):
    code = main(["spectrum", "--p", "4", *argv])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    message = "an eigenvalue, or a term of its exact form, is beyond the double range"
    assert out.err == f"error: {message}\n"


def exact_form_value(text: str) -> Decimal:
    """The value of an eigenvalue's exact form, "r" or "r +- sqrt(s)", to 800 digits."""
    def dec(r):
        q = Fraction(r)
        return Decimal(q.numerator) / Decimal(q.denominator)

    with localcontext() as ctx:
        ctx.prec = 800
        if " sqrt(" not in text:
            return dec(text)
        base, op, root = text.split(" ")
        return dec(base) + (1 if op == "+" else -1) * dec(root[len("sqrt("):-1]).sqrt()


@pytest.mark.parametrize(
    "argv, size",
    [
        (["--model", "moszkowski", "--c", str(10**300), "--V", "1", "--p", "4"], 1e300),
        (["--model", "sphaleron", "--case", "50", "--k2", str(10**300), "--p", "2"], 1e300),
        (["--model", "moszkowski", "--c", f"1/{10**160}", "--V", f"1/{10**160}", "--p", "2"],
         1e-160),
    ],
    ids=["moszkowski", "sphaleron", "moszkowski-tiny"],
)
def test_an_eigenvalue_prints_as_its_exact_form_when_its_radicand_leaves_the_range(
    capsys, argv, size
):
    # radicands of about 1e600 overflow a double and those of about 1e-320 are
    # subnormal, the eigenvalues of about 1e300 and 1e-160 are not: the terms
    # are scaled by powers of two, so the float is that of the exact form
    code = main(["spectrum", *argv])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    eigenvalues = json.loads(out.out)["eigenvalues"]
    assert size / 10 < max(abs(e["float"]) for e in eigenvalues) < size * 10
    for e in eigenvalues:
        want = exact_form_value(e["exact"])
        assert abs(Decimal(e["float"]) - want) <= Decimal("1e-12") * abs(want), e
