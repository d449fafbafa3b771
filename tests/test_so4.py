from fractions import Fraction
from math import comb

import pytest

from q2rep import linalg
from q2rep.algebra import GENERATORS
from q2rep.rep import Basis, gram_matrix, rep_matrices
from q2rep.so4 import (
    JP,
    K0,
    KM,
    KP,
    RAD_ONE,
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
        ident = linalg.identity(n, RAD_ONE, RAD_ZERO)
        assert linalg.equal(linalg.matmul(kp, kp), linalg.scale(Fraction(0), ident))
        anti = linalg.add(linalg.matmul(kp, km), linalg.matmul(km, kp))
        assert linalg.equal(anti, ident)
        assert linalg.equal(linalg.matmul(k0, k0), linalg.scale(Fraction(1, 4), ident))
        # K0 is diag(+-1/2) across the spin-1/2 label
        assert k0[0][0] == Radical.rational(Fraction(1, 2))
        assert k0[1][1] == Radical.rational(Fraction(-1, 2))


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
    assert linalg.equal(t, linalg.identity(2, RAD_ONE, RAD_ZERO))


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
                assert g[i][j].rational_value() == metric[i][j].rat, (p, i, j)


def test_identification_lines_all_pass():
    for p in (*range(1, 9), 16, 32, 64):
        lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
        lines = identification_lines(p, so4_matrices(p), lc)
        assert len(lines) == 8
        assert all(line.passed for line in lines), [
            line.label for line in lines if not line.passed
        ]


def test_similarity_d_makes_so4_and_t_rational():
    # D = diag(sqrt(C(p-1, i_m))): D^-1 X D and D^-1 T have rational entries
    for p in range(1, 65):
        d = [Radical.sqrt(comb(p - 1, t // 2)) for t in range(2 * p)]
        for g, x in so4_matrices(p).items():
            for i, row in enumerate(x):
                for j, v in row.nz.items():
                    scaled = v * d[j] * Radical.sqrt(Fraction(1, comb(p - 1, i // 2)))
                    assert scaled.is_rational(), (p, g, i, j)
        for i, row in enumerate(tensor_to_lambda_chi(p)):
            for j, v in row.nz.items():
                assert (v * Radical.sqrt(Fraction(1, comb(p - 1, i // 2)))).is_rational(), (p, i, j)


def _with_jp_entry(p, i, change):
    """The so(4) matrices at p with the first J+ entry of row i replaced by change(entry)."""
    mats = so4_matrices(p)
    rows = [dict(r.nz) for r in mats[JP]]
    j = min(rows[i])
    rows[i][j] = change(rows[i][j], i)
    return {**mats, JP: linalg.sparse(2 * p, RAD_ZERO, rows)}


# the first differences that the same doubled J+ entries gave when the check
# ran as S T = T M in multi-radical arithmetic, without the similarity D
@pytest.mark.parametrize("p, row, expected", [
    (3, 1, {"b-": (1, 2), "e1_sum": (1, 1)}),
    (3, 3, {"b-": (3, 3), "e1_sum": (3, 2)}),
    (8, 1, {"b-": (1, 2), "e1_sum": (1, 1)}),
    (8, 9, {"b-": (9, 6), "e1_sum": (9, 5)}),
])
def test_doubled_j_plus_entry_fails_at_the_unscaled_first_difference(p, row, expected):
    mats = _with_jp_entry(p, row, lambda x, i: x * 2)
    lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
    lines = identification_lines(p, mats, lc)
    names = ["b-", "b+", "e0_diff", "f-", "f+", "e1_diff", "e0_sum", "e1_sum"]
    failed = {name: line.first_difference for name, line in zip(names, lines) if not line.passed}
    assert failed == expected


def test_irrational_j_plus_entry_is_named():
    p = 3
    mats = _with_jp_entry(p, 1, lambda x, i: Radical.sqrt(i * (p - i) + 1))
    lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
    with pytest.raises(ValueError, match=r"J\+ entry \(1, 3\)"):
        identification_lines(p, mats, lc)


def test_identification_multiplies_no_radicals(monkeypatch):
    products = []
    true_mul = Radical.__mul__

    def counted(self, other):
        if isinstance(other, Radical):
            products.append((self, other))
        return true_mul(self, other)

    monkeypatch.setattr(Radical, "__mul__", counted)
    monkeypatch.setattr(Radical, "__rmul__", counted)
    for p in (1, 2, 8):
        mats = so4_matrices(p)
        lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
        assert all(line.passed for line in identification_lines(p, mats, lc))
    assert products == []


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
