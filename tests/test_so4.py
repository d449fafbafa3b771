import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from q2rep import linalg, so4
from q2rep.algebra import GENERATORS
from q2rep.rep import Basis, gram_matrix, rep_matrices
from q2rep.scalars import ExtScalar
from q2rep.so4 import (
    J0,
    JM,
    JP,
    K0,
    KM,
    KP,
    RAD_ZERO,
    Radical,
    casimir,
    gram_in_tensor_basis,
    identification_lines,
    so4_matrices,
    so4_relation_report,
    tensor_to_lambda_chi,
)


def test_radical_arithmetic():
    r2 = Radical.sqrt(2)
    r8 = Radical.sqrt(8)
    assert r8 == r2 * 2
    assert r2 * r2 == Radical.rational(2)
    assert Radical.sqrt(Fraction(4, 9)) == Radical.rational(Fraction(2, 3))
    assert Radical.sqrt(12) * Radical.sqrt(3) == Radical.rational(6)
    assert (Radical.sqrt(2) + Radical.sqrt(3)) * (Radical.sqrt(2) - Radical.sqrt(3)) == Radical.rational(-1)


def test_radical_products_match_sqrt_of_the_product():
    squarefree = [r for r in range(1, 61) if all(r % (d * d) for d in range(2, 8))]
    for r1 in squarefree:
        for r2 in squarefree:
            assert Radical.sqrt(r1) * Radical.sqrt(r2) == Radical.sqrt(r1 * r2), (r1, r2)
    product = Radical.sqrt(6) * Radical({2: Fraction(1, 3), 5: 2})
    assert product == Radical({3: Fraction(2, 3), 30: 2})  # 2 sqrt(3)/3 + 2 sqrt(30)


def test_radical_rejects_negative():
    with pytest.raises(ValueError):
        Radical.sqrt(-1)


def test_k_family_relations():
    for p in (1, 2, 5):
        n = 2 * p
        kp = so4_matrices(p)[KP]
        km = so4_matrices(p)[KM]
        k0 = so4_matrices(p)[K0]
        ident = linalg.ext_identity(n, p)
        assert linalg.equal(linalg.matmul(kp, kp), linalg.scale(Fraction(0), ident))
        anti = linalg.add(linalg.matmul(kp, km), linalg.matmul(km, kp))
        assert linalg.equal(anti, ident)
        assert linalg.equal(linalg.matmul(k0, k0), linalg.scale(Fraction(1, 4), ident))
        # K0 is diag(+-1/2) across the spin-1/2 label
        assert k0[0][0] == ExtScalar(Fraction(1, 2), 0, p)
        assert k0[1][1] == ExtScalar(Fraction(-1, 2), 0, p)


def test_j_plus_annihilates_top():
    for p in (2, 4):
        jp = so4_matrices(p)[JP]
        n = 2 * p
        # columns 0 and 1 carry the top m; J+ sends them to zero
        assert all(not jp[i][0] and not jp[i][1] for i in range(n))


def test_all_commutation_relations():
    for p in range(1, 9):
        report = so4_relation_report(p)
        assert all(ok for _, ok in report), [name for name, ok in report if not ok]


def test_tensor_map_p1():
    t = tensor_to_lambda_chi(1)
    # Lam_0 = |0,0> x |up>, Lam_1 = |0,0> x |down>, no chi sector
    assert linalg.equal(t, linalg.identity(2, Radical.rational(1), RAD_ZERO))


def test_tensor_map_invertibility_via_gram():
    for p in range(1, 9):
        g = gram_in_tensor_basis(p)
        n = 2 * p
        assert all(not g[i][j] for i in range(n) for j in range(n) if i != j)
        assert all(g[i][i] for i in range(n))
        # and it coincides, entry by entry as rationals, with the V_p metric of the Lam/chi basis
        metric = gram_matrix(Basis.LAMBDA_CHI, p)
        for i in range(n):
            for j in range(n):
                assert metric[i][j].is_rational(), (p, i, j)
                assert g[i][j] == metric[i][j].rat, (p, i, j)


def test_identification_lines_all_pass():
    for p in (*range(1, 9), 16, 32, 64):
        lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
        lines = identification_lines(p, so4_matrices(p), lc)
        assert len(lines) == 8
        assert all(line.passed for line in lines), [
            line.label for line in lines if not line.passed
        ]


def _unitary_spin_matrices(p):
    """The six J/K generators with the unitary spin entries, as {(row, column): Radical} dicts."""
    j = Fraction(p - 1, 2)
    out = {g: {} for g in (J0, JP, JM, K0, KP, KM)}
    for i_m in range(p):
        m = j - i_m
        for mu in range(2):
            t = 2 * i_m + mu
            out[J0][t, t] = Radical.rational(m)
            out[K0][t, t] = Radical.rational(Fraction(1, 2) - mu)
            if i_m > 0:
                out[JP][t - 2, t] = Radical.sqrt((j - m) * (j + m + 1))
            if i_m < p - 1:
                out[JM][t + 2, t] = Radical.sqrt((j + m) * (j - m + 1))
        out[KP][2 * i_m, 2 * i_m + 1] = out[KM][2 * i_m + 1, 2 * i_m] = Radical.rational(1)
    return out


def _entries(m):
    return {(i, j): v for i, row in enumerate(m) for j, v in row.nz.items()}


def test_similarity_d_makes_so4_and_t_rational():
    # D = diag(sqrt(C(p-1, i_m))): so4_matrices is D^-1 X D of the unitary
    # spin matrices X, and the T' that identification_lines reads is D^-1 T
    # of the unitary T, both entry by entry
    for p in range(1, 65):
        d = [Radical.sqrt(comb(p - 1, t // 2)) for t in range(2 * p)]
        d_inv = [Radical.sqrt(Fraction(1, comb(p - 1, t // 2))) for t in range(2 * p)]
        unitary_mats = _unitary_spin_matrices(p)
        for g, x in so4_matrices(p).items():
            ladder = _entries(x)
            unitary = {ij: v for ij, v in unitary_mats[g].items() if v}
            assert ladder.keys() == unitary.keys(), (p, g)
            for (i, j), v in unitary.items():
                assert ladder[i, j].is_rational(), (p, g, i, j)
                assert d_inv[i] * v * d[j] == ladder[i, j].rat, (p, g, i, j)
        t, t_prime = _entries(tensor_to_lambda_chi(p)), _entries(so4._scaled_tensor_map(p))
        assert t_prime.keys() == t.keys(), p
        for (i, j), v in t.items():
            assert t_prime[i, j].is_rational(), (p, i, j)
            assert d_inv[i] * v == t_prime[i, j].rat, (p, i, j)


def _with_doubled_jp_entry(p, i):
    """The so(4) matrices at p with the first J+ entry of row i doubled."""
    mats = so4_matrices(p)
    rows = [dict(r.nz) for r in mats[JP]]
    j = min(rows[i])
    rows[i][j] = rows[i][j] * 2
    return {**mats, JP: linalg.sparse(2 * p, ExtScalar.zero(p), rows)}


# the first differences that the same doubled J+ entries gave when the check
# ran as S T = T M in multi-radical arithmetic, without the similarity D
@pytest.mark.parametrize("p, row, expected", [
    (3, 1, {"b-": (1, 2), "e1_sum": (1, 1)}),
    (3, 3, {"b-": (3, 3), "e1_sum": (3, 2)}),
    (8, 1, {"b-": (1, 2), "e1_sum": (1, 1)}),
    (8, 9, {"b-": (9, 6), "e1_sum": (9, 5)}),
])
def test_doubled_j_plus_entry_fails_at_the_unscaled_first_difference(p, row, expected):
    mats = _with_doubled_jp_entry(p, row)
    lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
    lines = identification_lines(p, mats, lc)
    names = [name for _, name, _ in so4.IDENTIFICATIONS]
    failed = {name: line.first_difference for name, line in zip(names, lines) if not line.passed}
    assert failed == expected


def test_identification_multiplies_no_radicals(monkeypatch):
    calls = []

    def counted(name):
        method = vars(Radical)[name]

        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    for name in ("__init__", "__add__", "__neg__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Radical, name, counted(name))
    for p in (1, 2, 8):
        mats = so4_matrices(p)
        assert all(ok for _, ok in so4_relation_report(p))
        assert casimir(1, p, mats)[1] - casimir(2, p, mats)[1] == Fraction(3, 2)
        lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
        assert all(line.passed for line in identification_lines(p, mats, lc))
    # the ladders, their relations, Casimirs and the identification build no Radical
    assert calls == []


def test_tracer_hooks_exist_on_radical():
    """Every Radical method that perfbench/tracing.py wraps is still defined on Radical."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    hooked = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "RADICAL_ARITHMETIC"
    )
    assert hooked and all(name in vars(so4.Radical) for name in hooked), hooked


def test_casimirs_are_scalar():
    for p in range(1, 9):
        mats = so4_matrices(p)
        m1, c1 = casimir(1, p, mats)
        m2, c2 = casimir(2, p, mats)
        assert linalg.is_scalar_matrix(m1)
        assert linalg.is_scalar_matrix(m2)
        # exact values in this tensor representation
        assert c1 == Fraction(p * p + 2, 4)
        assert c2 == Fraction(p * p - 4, 4)
        # the Casimirs differ by a multiple of the scalar e00_0 + e11_0 image:
        # C1 - C2 = 2 K0^2 + {K+, K-} = 3/2 = (3/2p) * p
        assert c1 - c2 == Fraction(3, 2)
