import ast
import importlib
import pkgutil
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest

import q2rep
from conftest import reference_matrices
from q2rep import cli, linalg, rep, scalars
from q2rep.algebra import (
    B_MINUS,
    B_PLUS,
    E00_0,
    E00_1,
    E11_0,
    E11_1,
    F_MINUS,
    F_PLUS,
    GENERATORS,
    SuperElement,
    bracket,
)
from q2rep.rep import (
    Basis,
    change_of_basis,
    expansion_in_rvw,
    gram_matrix,
    rep_matrix,
    rep_of_element,
    weights_lambda_chi,
)
from q2rep.scalars import ExtScalar, ext, inv_sqrt_p


def vw_col(g, p, j):
    """The nonzero entries of column j of g's VW matrix: the image of VW basis vector j."""
    return dict(linalg.transpose(rep_matrix(g, Basis.VW, p))[j].nz)


def test_act_bminus_on_v():
    # b- v_3 = 3 (p - 3 + 1) v_2 = 9 v_2 at p = 5
    assert vw_col(B_MINUS, 5, 3) == {2: ext(5, 9)}


def test_act_fplus_on_w_vanishes():
    # w_2 sits at index p + 1
    assert vw_col(F_PLUS, 5, 6) == {}


def test_act_fminus_on_v():
    # f- v_2 = 2 sqrt(p) v_1 - 2 w_1; at p = 4 the v-coefficient is 2s (s = sqrt(4)),
    # and w_1 sits at index p
    out = vw_col(F_MINUS, 4, 2)
    assert out == {1: ext(4, 0, 2), 4: ext(4, -2)}
    assert out[1].to_float() == pytest.approx(4.0)


def test_primitive_vector_reduces_to_zero():
    # v_p = b+ v_{p-1} and w_p = f+ v_{p-1}, so v_p - sqrt(p) w_p is column
    # p - 1 of B+ - sqrt(p) F+
    for p in range(1, 6):
        prim = linalg.sub(
            rep_matrix(B_PLUS, Basis.VW, p),
            linalg.scale(ExtScalar.sqrt_p(p), rep_matrix(F_PLUS, Basis.VW, p)),
        )
        assert not linalg.transpose(prim)[p - 1].nz


def test_high_indices_drop():
    # b+ and f+ send the last vector v_p + sqrt(p) w_p to v_{p+1} + sqrt(p) w_{p+1}
    # and w_{p+1}; both vanish, and so do v_{p+1} = b+ b+ v_{p-1} and
    # w_{p+1} = b+ f+ v_{p-1}
    for p in range(1, 5):
        n = 2 * p
        assert vw_col(B_PLUS, p, n - 1) == {} and vw_col(F_PLUS, p, n - 1) == {}
        bplus = rep_matrix(B_PLUS, Basis.VW, p)
        assert not linalg.transpose(linalg.matmul(bplus, bplus))[p - 1].nz  # v_{p+1}
        fplus = rep_matrix(F_PLUS, Basis.VW, p)
        assert not linalg.transpose(linalg.matmul(bplus, fplus))[p - 1].nz  # w_{p+1}


def test_bplus_on_lambda_pminus1_gives_lambda_p():
    # the quotient turns (1/p!) v_p into Lam_p = (v_p + sqrt(p) w_p)/(2 p!); Lam_k
    # in VW coordinates comes from the generic change of basis, not from T
    for p in range(1, 6):
        lam = linalg.transpose(change_of_basis(Basis.LAMBDA_CHI, Basis.VW, p))
        image = linalg.matmul(rep_matrix(B_PLUS, Basis.VW, p), linalg.transpose([lam[p - 1]]))
        assert linalg.equal(image, linalg.transpose([lam[p]]))


def test_vw_matrices_satisfy_the_induced_module_relations():
    # v_0 generates V_p, so these relations and the homomorphism fix every VW
    # matrix; u = v_p + sqrt(p) w_p is the last basis vector
    for p in range(1, 17):
        n, s, one = 2 * p, ExtScalar.sqrt_p(p), ExtScalar.one(p)
        for g in (B_MINUS, F_MINUS, E11_0, E11_1):
            assert vw_col(g, p, 0) == {}, (p, g.name)
        assert vw_col(E00_0, p, 0) == {0: one * p}
        assert vw_col(E00_1, p, 0) == {0: s}
        for k in range(p - 1):  # v_k at k, w_k at p + k - 1
            assert vw_col(B_PLUS, p, k) == {k + 1: one}
            assert vw_col(F_PLUS, p, k) == {p + k: one}
        for k in range(1, p - 1):
            assert vw_col(B_PLUS, p, p + k - 1) == {p + k: one}
        for k in range(1, p):
            assert vw_col(F_PLUS, p, p + k - 1) == {}
        half, half_over_s = one * Fraction(1, 2), s * Fraction(1, 2 * p)
        assert vw_col(B_PLUS, p, p - 1) == {n - 1: half}
        assert vw_col(F_PLUS, p, p - 1) == {n - 1: half_over_s}
        if p > 1:
            assert vw_col(B_PLUS, p, n - 2) == {n - 1: half_over_s}


def test_rep_matrix_examples_lambda_chi():
    # b- Lam_2 = 2 Lam_1 at p = 3 (column of Lam_2 is index 2)
    m = rep_matrix(B_MINUS, Basis.LAMBDA_CHI, 3)
    col = [m[i][2] for i in range(6)]
    assert col[1] == 2 and sum(1 for x in col if x) == 1

    # f+ Lam_1 = (2 Lam_2 - 2 chi_2)/sqrt(3): chi_2 sits at index (p+1)+(2-1) = 5
    m = rep_matrix(F_PLUS, Basis.LAMBDA_CHI, 3)
    col = [m[i][1] for i in range(6)]
    two_over_s3 = ext(3, 0, Fraction(2, 3))
    assert col[2] == two_over_s3 and col[5] == -two_over_s3


def test_identity_combination():
    for p in range(1, 9):
        for basis in Basis:
            m = rep_of_element(
                SuperElement(p, {E00_0: ExtScalar.one(p), E11_0: ExtScalar.one(p)}), basis, p
            )
            assert linalg.equal(m, linalg.scale(ext(p, p), linalg.ext_identity(2 * p, p)))


def test_gram_examples_p2():
    g = gram_matrix(Basis.VW, 2)
    iv1, iw1 = 1, 2  # the VW order at p = 2: v0, v1, w1, v2 + sqrt(2) w2
    assert g[iv1][iv1] == 2
    assert g[iw1][iw1] == 2
    assert g[iv1][iw1] == ExtScalar.sqrt_p(2)


def test_gram_normalization():
    for p in range(1, 9):
        assert gram_matrix(Basis.VW, p)[0][0] == 1  # <v_0 | v_0> = 1


def test_lambda_chi_orthogonal():
    for p in range(1, 9):
        g = gram_matrix(Basis.LAMBDA_CHI, p)
        n = 2 * p
        assert all(not g[i][j] for i in range(n) for j in range(n) if i != j)
        assert all(g[i][i] for i in range(n))


def test_adjointness_with_vw_gram():
    for p in range(1, 9):
        g = gram_matrix(Basis.VW, p)
        for plus, minus in ((B_PLUS, B_MINUS), (F_PLUS, F_MINUS)):
            lhs = linalg.matmul(g, rep_matrix(plus, Basis.VW, p))
            rhs = linalg.matmul(linalg.transpose(rep_matrix(minus, Basis.VW, p)), g)
            assert linalg.equal(lhs, rhs)


def test_weight_structure():
    for p in range(1, 9):
        d = rep_of_element(
            SuperElement(p, {E00_0: ExtScalar.one(p), E11_0: -ExtScalar.one(p)}),
            Basis.LAMBDA_CHI,
            p,
        )
        w = weights_lambda_chi(p)
        n = 2 * p
        assert all(d[i][i] == w[i] for i in range(n))
        assert all(not d[i][j] for i in range(n) for j in range(n) if i != j)
        # top and bottom weights occur once, interior ones twice
        assert w.count(p) == 1 and w.count(-p) == 1
        for interior in range(1, p):
            assert w.count(p - 2 * interior) == 2


def test_mu_change_of_basis_p2():
    # mu_0 = Lam_2, mu_1 = Lam_1 - chi_1, mu_2 = Lam_1 + chi_1, mu_3 = Lam_0
    t = change_of_basis(Basis.MU, Basis.LAMBDA_CHI, 2)
    cols = linalg.transpose(t)
    expect = [
        [0, 0, 1, 0],
        [0, 1, 0, -1],
        [0, 1, 0, 1],
        [1, 0, 0, 0],
    ]
    for col, want in zip(cols, expect):
        assert [x.rat for x in col] == want and all(x.is_rational() for x in col)


def test_change_of_basis_round_trips():
    # same-basis pairs included: change_of_basis(b, b, p) is one solve, no shortcut
    for p in range(1, 9):
        ident = linalg.ext_identity(2 * p, p)
        for b1, b2 in product(Basis, repeat=2):
            t = change_of_basis(b1, b2, p)
            back = change_of_basis(b2, b1, p)
            assert linalg.equal(linalg.matmul(back, t), ident)
            if b1 is b2:
                assert linalg.equal(t, ident), (p, b1)
                assert all(type(r.zero) is ExtScalar and r.zero == ident[0].zero for r in t)


def test_conjugation_consistency():
    for p in range(1, 9):
        t = change_of_basis(Basis.LAMBDA_CHI, Basis.MU, p)
        ti = change_of_basis(Basis.MU, Basis.LAMBDA_CHI, p)
        for g in GENERATORS:
            lhs = rep_matrix(g, Basis.MU, p)
            rhs = linalg.matmul(t, linalg.matmul(rep_matrix(g, Basis.LAMBDA_CHI, p), ti))
            assert linalg.equal(lhs, rhs)


def table_inverse(x, p):
    """(Y, D) with Y = D X^-1 for integer rows X: the exact solve, then the lcm of denominators."""
    n, zero = 2 * p, ExtScalar.zero(p)
    x = linalg.sparse(n, zero, [{j: ExtScalar.of(v, p) for j, v in row.items()} for row in x])
    solved = linalg.solve(x, linalg.ext_identity(n, p))
    inv = [{j: e.triple() for j, e in row.nz.items()} for row in solved]
    assert all(b == 0 for row in inv for _, b, _ in row.values())
    d = lcm(*(q for row in inv for _, _, q in row.values()))
    return [{j: a * (d // q) for j, (a, _, q) in row.items()} for row in inv], d


def assert_integer_change(change):
    """X (D X^-1) = (D X^-1) X = D I over the ints, for p = 1..64."""
    for p in range(1, 65):
        x, y, d = change(p)
        assert type(d) is int and d > 0
        assert all(type(v) is int for rows in (x, y) for row in rows for v in row.values())
        assert len(x) == len(y) == 2 * p
        diagonal = [{i: d} for i in range(2 * p)]
        assert linalg.product_rows(x, y) == linalg.product_rows(y, x) == diagonal, p


def test_mu_change_inverse_is_exact():
    assert_integer_change(rep._mu_change)


def test_realization_2_checks_mu_independently_of_c(monkeypatch):
    # A consistent but wrong C (one chi weight off by one, inverse rebuilt to
    # match) keeps every bracket, so verify passes; only realization 2 sees it.
    true_change = rep._mu_change

    def wrong_change(p):
        c = [dict(row) for row in true_change(p)[0]]
        # mu_{p-1} = Lam_1 - p chi_1 in place of Lam_1 - (p-1) chi_1
        c[p + 1][p - 1] -= 1
        return (c, *table_inverse(c, p))

    monkeypatch.setattr(rep, "_mu_change", wrong_change)
    try:
        assert cli.main(["check-realization", "--which", "2", "--p", "3"]) == 1
        for which in ("1", "3"):
            assert cli.main(["check-realization", "--which", which, "--p", "3"]) == 0
        assert cli.main(["verify", "--p", "3"]) == 0
    finally:
        monkeypatch.undo()


def test_vw_change_inverse_is_exact():
    assert_integer_change(rep._vw_change)


def test_vw_change_is_the_generic_change_of_basis():
    # T = T_Q S, S = diag(sqrt(p)^delta_j)
    for p in range(1, 17):
        t_q, _, _ = rep._vw_change(p)
        s, deg = ExtScalar.sqrt_p(p), rep.degrees(Basis.VW, p)
        rows = [{j: s * v if deg[j] else ExtScalar.of(v, p) for j, v in row.items()} for row in t_q]
        t = linalg.sparse(2 * p, ExtScalar.zero(p), rows)
        assert linalg.equal(t, change_of_basis(Basis.VW, Basis.LAMBDA_CHI, p))


def test_gram_adjointness_checks_vw_independently_of_t(monkeypatch, capsys):
    # A consistent but wrong T (v_1 doubled, inverse rebuilt to match) keeps
    # every bracket, so the homomorphism holds; only Gram adjointness sees it.
    true_change = rep._vw_change

    def wrong_change(p):
        t_q = [{j: v * 2 if j == 1 else v for j, v in row.items()} for row in true_change(p)[0]]
        return (t_q, *table_inverse(t_q, p))

    monkeypatch.setattr(rep, "_vw_change", wrong_change)
    try:
        capsys.readouterr()
        assert cli.main(["verify", "--p", "3"]) == 1
        # suite lines read "<name> <count> checks <pass|FAIL ...>"
        status = {w[0]: w[3] for w in map(str.split, capsys.readouterr().out.splitlines())}
        assert status["gram-adjointness"] == "FAIL"
        assert status["rep-homomorphism"] == "pass"
        for which in ("1", "2", "3"):
            assert cli.main(["check-realization", "--which", which, "--p", "3"]) == 0
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("p", [*range(1, 13), 32])
def test_rep_matrices_equal_the_ext_reference(p):
    for basis in Basis:
        ref = reference_matrices(basis, p)
        built = rep.rep_matrices(GENERATORS, basis, p)
        for g in GENERATORS:
            assert linalg.equal(built[g], ref[g]), (p, basis, g.name)
            for row, want in zip(built[g], ref[g]):
                assert list(row.nz) == sorted(row.nz)
                assert type(row.zero) is ExtScalar and row.zero == want.zero
                assert row.n == want.n == 2 * p


def test_homomorphism_sample():
    # full 64-pair sweep over all bases for small p; the acceptance suite
    # extends this to p = 8
    for p in (1, 2, 3):
        for basis in Basis:
            for gx, gy in product(GENERATORS, repeat=2):
                mx = rep_matrix(gx, basis, p)
                my = rep_matrix(gy, basis, p)
                sign = ext(p, -1 if (gx.parity and gy.parity) else 1)
                lhs = linalg.sub(
                    linalg.matmul(mx, my), linalg.scale(sign, linalg.matmul(my, mx))
                )
                rhs = rep_of_element(
                    bracket(SuperElement.basis(gx, p), SuperElement.basis(gy, p)), basis, p
                )
                assert linalg.equal(lhs, rhs), (p, basis, gx.name, gy.name)


def test_gl2_invariant_subspaces():
    # span{Lam_k} and span{chi_l} are each invariant under b+-, e00_0, e11_0
    for p in range(2, 7):
        for g in (B_PLUS, B_MINUS, E00_0, E11_0):
            m = rep_matrix(g, Basis.LAMBDA_CHI, p)
            n = 2 * p
            for j in range(p + 1):  # Lambda columns stay in the Lambda block
                assert all(not m[i][j] for i in range(p + 1, n))
            for j in range(p + 1, n):  # chi columns stay in the chi block
                assert all(not m[i][j] for i in range(p + 1))


def test_third_basis_matches_lambda_chi():
    for p in range(1, 6):
        for g in GENERATORS:
            assert linalg.equal(
                rep_matrix(g, Basis.THIRD, p), rep_matrix(g, Basis.LAMBDA_CHI, p)
            )


EXT_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
                  "inverse")


def test_lambda_chi_matrices_build_only_their_own_terms(monkeypatch):
    # The eight matrices at p = 32, in each basis, are built on ints: no
    # ExtScalar arithmetic, and one ExtScalar made per nonzero entry besides
    # the one zero that the rows share
    ops, made = [0], [0]

    def counted(fn, cell):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    for basis in Basis:
        ops[0] = made[0] = 0
        with monkeypatch.context() as m:
            for name in EXT_ARITHMETIC:
                m.setattr(ExtScalar, name, counted(vars(ExtScalar)[name], ops))
            m.setattr(ExtScalar, "__init__", counted(ExtScalar.__init__, made))
            m.setattr(scalars, "_normal", counted(scalars._normal, made))
            built = rep.rep_matrices(GENERATORS, basis, 32)
        assert ops[0] == 0, basis
        entries = [x for m in built.values() for row in m for x in row.nz.values()]
        assert made[0] == len(entries) + 1 and len(set(map(id, entries))) == len(entries), basis
        assert all(linalg.equal(m, rep_matrix(g, basis, 32)) for g, m in built.items())


def test_p1_has_no_chi_sector():
    assert linalg.shape(rep_matrix(B_PLUS, Basis.LAMBDA_CHI, 1)) == (2, 2)


def test_expansion_matrices_invertible():
    for p in range(1, 9):
        for basis in Basis:
            e = expansion_in_rvw(basis, p)
            linalg.solve(e, linalg.ext_identity(2 * p, p))  # raises if singular


def test_every_generator_matrix_is_graded_by_sqrt_p():
    """Entry (i, j) of M_g lies in Q sqrt(p)^((delta_i + delta_j + parity) mod 2), p = 1..64."""
    for p in range(1, 65):
        for basis in Basis:
            deg = rep.degrees(basis, p)
            assert len(deg) == 2 * p
            for g, m in rep.rep_matrices(GENERATORS, basis, p).items():
                for i, row in enumerate(m):
                    for j, x in row.nz.items():
                        a, b, _ = x.triple()
                        odd = (deg[i] + deg[j] + g.parity) % 2
                        assert (a if odd else b) == 0, (p, basis, g.name, i, j, x)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 9])
def test_integer_rows_are_the_scaled_similarity(p):
    """R_g / D = s^parity S M_g S^-1, S = diag(s^delta_i), for the M_g of the exact solve.

    The graded form is in lowest terms, and each R_g entry is an int.
    """
    s, s_inv = ExtScalar.sqrt_p(p), inv_sqrt_p(p)
    for basis in Basis:
        deg = rep.degrees(basis, p)
        mats = reference_matrices(basis, p)
        den, rows = rep.graded_matrices(GENERATORS, basis, p)
        assert den >= 1 and set(rows) == set(mats)
        assert gcd(den, *(v for r in rows.values() for row in r for v in row.values())) == 1
        for g, m in mats.items():
            assert len(rows[g]) == 2 * p
            for i, (want, got) in enumerate(zip(m, rows[g])):
                assert set(got) == set(want.nz)
                for j, x in want.nz.items():
                    y = x * den
                    for factor in [s] * g.parity + [s] * deg[i] + [s_inv] * deg[j]:
                        y = y * factor
                    assert type(got[j]) is int and y == got[j], (basis, g.name, i, j)


def test_action_tables_are_integer():
    """Every coefficient of I_g is an int, for the eight generators at p = 1..64."""
    for p in range(1, 65):
        for g in GENERATORS:
            images = [rep._lc_action(g, "L", k, p) for k in range(p + 1)]
            images += [rep._lc_action(g, "C", l, p) for l in range(1, p)]
            assert all(type(c) is int for terms in images for _, _, c in terms), (p, g.name)


def test_unbounded_caches_are_the_listed_ones():
    """No function keeps a cache across calls; each caller holds what it reuses."""
    found = set()
    for info in pkgutil.iter_modules(q2rep.__path__):
        module = importlib.import_module(f"q2rep.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found.add(f"{info.name}.{name}")
    assert found == set()


# Public functions that only tier-1 calls: each checks an identity or a closed form
# of code that stays.
REFERENCE_CHECKS = {
    "supercommutator": "operator-level closure of the realizations, through compose",
    "realization_of_element": "realizes a general element, the linear extension of realization",
    "graded_antisymmetry_holds": "graded antisymmetry of the structure constants in algebra",
    "so4_relation_report": "the so(4) commutation relations of the so4_matrices ladders",
    "gram_in_tensor_basis": "T^t T against the Lam/chi Gram matrix of gram_matrix",
    "weights_lambda_chi": "closed-form weights of e00_0 - e11_0 on the Lam/chi basis",
}


def _imports(tree: ast.AST) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """The names and the module aliases that the imports of the file bind.

    `from .m import f` and `from q2rep.m import f` bind f to (m, f);
    `from . import m` and `from q2rep import m` bind m to the module m.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source in (".", "q2rep"):
                modules.update({a.asname or a.name: a.name for a in node.names})
            elif source.startswith((".", "q2rep.")):
                module = source.removeprefix(".").removeprefix("q2rep.")
                names.update({a.asname or a.name: (module, a.name) for a in node.names})
    return names, modules


def _references(node: ast.AST, names, modules, own: str | None) -> set[tuple[str, str]]:
    """(module, name) for each use in node: an imported name, `m.name` after importing
    m, or a bare name of `own` module.  An import alone is no use."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in names:
                out.add(names[sub.id])
            elif own:
                out.add((own, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in modules:
                out.add((modules[sub.value.id], sub.attr))
    return out


def test_every_public_function_has_a_caller():
    """Each public top-level function is used by package code outside its own def, is
    exported in q2rep.__all__, is used by perfbench or by the acceptance gate, or is one
    of the listed reference checks.  Every reference is resolved to its module, so a use
    of another module's function, or of a method, of the same name does not count."""
    root = Path(__file__).parents[1]
    public, used = set(), set()
    for path in sorted(Path(q2rep.__file__).parent.glob("*.py")):
        tree, own = ast.parse(path.read_text()), path.stem
        names, modules = _imports(tree)
        if own == "__init__":
            used |= {names[name] for name in q2rep.__all__ if name in names}
        for node in tree.body:
            refs = _references(node, names, modules, own)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    public.add((own, node.name))
                refs.discard((own, node.name))
            used |= refs
    for path in [*sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py"]:
        tree = ast.parse(path.read_text())
        used |= _references(tree, *_imports(tree), None)
    unused = {f"{module}.{name}" for module, name in public - used}
    assert unused == {f"{module}.{name}" for module, name in public if name in REFERENCE_CHECKS}
