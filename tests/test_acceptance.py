"""Acceptance suite: one test per stated criterion, at the stated tolerance.

Every identity marked exact is checked with exact arithmetic (no floats);
numeric agreement means 1e-9 relative.

Errata.  Two criteria were first stated with target values that exact
computation and classical theory both contradict; the tests now assert the
derived values, and each keeps the original target in its docstring:

  * criterion 5, Casimir values: stated as C1 = 2p^2 - 1 and C2 = 2p^2 - 4.
    C1 = J0^2 + K0^2 + {J+,J-}/2 + {K+,K-}/2 (C2: K terms negated) acts on
    D^{(p-1)/2} x D^{1/2}, J on the first factor and K on the second, so
    with j1 = (p-1)/2 and j2 = 1/2 it is the scalar
    j1(j1+1) + j2(j2+1) = (p^2+2)/4, and C2 = j1(j1+1) - j2(j2+1) =
    (p^2-4)/4.  No affine map a*C + b sends both onto the stated targets
    (a = 8, b = -5 fits C1 but turns C2 into 2p^2 - 13).
  * criterion 6, p = 1 sector-43 spectrum: stated as
    lam = 2 + 2k2 +- 2 sqrt(1 + 5k2 + k2^2).  The sector-43 matrix is
    ((0, 2), (-6k2, -4(1+k2))) from the raw operator, its generator
    rewrite and the independent derivation in q2rep.reduction alike; with
    lam = -eig it gives lam^2 - 4(1+k2) lam + 12k2 = 0, i.e.
    lam = 2 + 2k2 +- 2 sqrt(1 - k2 + k2^2).  These are the Lame n = 2 band
    edges 2(1+k^2) +- 2 sqrt(1 - k^2 + k^4) (Whittaker & Watson 23.41),
    theta^2 = 2p(2p+1) = 6 for a degree-1 W = a + bx.  The +5k2 radicand
    needs the -6k2 coupling with its sign flipped.
"""

import math
from fractions import Fraction
from itertools import product

from conftest import random_rational, seeded_rng
from q2rep import linalg
from q2rep.algebra import (
    B_MINUS,
    B_PLUS,
    F_MINUS,
    F_PLUS,
    GENERATORS,
    SuperElement,
    bracket,
    check_graded_jacobi,
)
from q2rep.diffop import (
    apply,
    monomial_basis,
    realization,
    realization_basis,
    realization_basis_id,
    realization_caps,
    realization_matrix,
    to_matrix,
)
from q2rep.models import (
    Model,
    ModelSpec,
    SPHALERON_MODELS,
    closed_form_blocks,
    closed_form_spectrum,
    expression_matrix,
    raw_matrix,
)
from q2rep.rep import Basis, gram_matrix, rep_matrices, rep_matrix, rep_of_element
from q2rep.scalars import ExtScalar, ext
from q2rep.so4 import casimir, identification_lines, so4_matrices
from q2rep.spectra import spectrum_of_matrix, values_close

P_RANGE = range(1, 9)
K2_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"ACCEPTANCE {number}: {status} - {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_1_graded_jacobi():
    ok, checked, violation = check_graded_jacobi()
    report(1, "graded Jacobi identity on all 512 basis triples", ok and checked == 512,
           f"violation {violation}")


def test_criterion_2_representation_homomorphism():
    bad = None
    for p in P_RANGE:
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
                if bad is None and not linalg.equal(lhs, rhs):
                    bad = (p, basis.value, gx.name, gy.name)
    report(2, "homomorphism for 64 pairs x 4 bases x p in 1..8", bad is None, str(bad))


def test_criterion_3_gram_adjointness_and_orthogonality():
    bad = None
    for p in P_RANGE:
        g = gram_matrix(Basis.VW, p)
        for plus, minus in ((B_PLUS, B_MINUS), (F_PLUS, F_MINUS)):
            lhs = linalg.matmul(g, rep_matrix(plus, Basis.VW, p))
            rhs = linalg.matmul(linalg.transpose(rep_matrix(minus, Basis.VW, p)), g)
            if bad is None and not linalg.equal(lhs, rhs):
                bad = f"adjointness p={p} {plus.name}"
        gl = gram_matrix(Basis.LAMBDA_CHI, p)
        n = 2 * p
        if bad is None and any(gl[i][j] for i in range(n) for j in range(n) if i != j):
            bad = f"orthogonality p={p}"
    report(3, "Gram adjointness and Lam/chi orthogonality, p in 1..8", bad is None, str(bad))


def test_criterion_4_realization_soundness():
    bad = None
    for p in P_RANGE:
        for which in (1, 2, 3):
            basis_id = realization_basis_id(which)
            for g in GENERATORS:
                if bad is None and not linalg.equal(
                    realization_matrix(which, g, p), rep_matrix(g, basis_id, p)
                ):
                    bad = f"realization {which} p={p} {g.name}"
            # space preservation: monomial sweep for the capped spaces,
            # exact span solve for the third realization
            if which in (1, 2):
                caps = realization_caps(which, p)
                for g in GENERATORS:
                    op = realization(which, g, p)
                    for v in monomial_basis(p, caps):
                        apply(op, v)
            else:
                basis = realization_basis(3, p)
                for g in GENERATORS:
                    to_matrix(realization(3, g, p), basis)
    report(4, "realizations 1-3 reproduce the abstract matrices, p in 1..8",
           bad is None, str(bad))


def test_criterion_5_so4_identification():
    bad = None
    for p in P_RANGE:
        lc = rep_matrices(GENERATORS, Basis.LAMBDA_CHI, p)
        for line in identification_lines(p, so4_matrices(p), lc):
            if bad is None and not line.passed:
                bad = f"p={p}: {line.label}"
    report(5, "all so(4) identification lines hold exactly, p in 1..8", bad is None, str(bad))


def test_criterion_5_casimir_scalar():
    bad = None
    for p in P_RANGE:
        mats = so4_matrices(p)
        try:
            casimir(1, p, mats)
            casimir(2, p, mats)
        except ValueError as exc:
            bad = bad or f"p={p}: {exc}"
    report(5, "Casimir matrices are scalar, p in 1..8", bad is None, str(bad))


def test_criterion_5_casimir_values_as_stated():
    """C1 = j1(j1+1) + j2(j2+1) and C2 = j1(j1+1) - j2(j2+1) exactly.

    Here j1 = (p-1)/2 and j2 = 1/2, the spins of the two tensor factors,
    so C1 = (p^2+2)/4 and C2 = (p^2-4)/4.  Erratum: the criterion was first
    stated as C1 = 2p^2 - 1 and C2 = 2p^2 - 4, which no affine rescaling of
    these Casimirs reproduces (see module docstring).
    """
    bad = None
    for p in P_RANGE:
        j1, j2 = Fraction(p - 1, 2), Fraction(1, 2)
        want1 = j1 * (j1 + 1) + j2 * (j2 + 1)
        want2 = j1 * (j1 + 1) - j2 * (j2 + 1)
        mats = so4_matrices(p)
        _, c1 = casimir(1, p, mats)
        _, c2 = casimir(2, p, mats)
        if bad is None and (c1 != want1 or c2 != want2):
            bad = f"p={p}: computed C1={c1}, C2={c2}, expected {want1}, {want2}"
    report(5, "Casimir values equal j1(j1+1) +- j2(j2+1), p in 1..8", bad is None, str(bad))


def test_criterion_6_sphaleron_rewrites():
    bad = None
    lam = Fraction(3, 2)
    for p in (1, 2, 3, 4):
        for model in SPHALERON_MODELS:
            for k2 in K2_GRID:
                spec = ModelSpec(model, p, {"k2": k2})
                if bad is None and not linalg.equal(expression_matrix(spec), raw_matrix(spec)):
                    bad = f"{model.value} p={p} k2={k2}"
                # the lambda term acts as an exact identity shift on both sides
                shifted = ModelSpec(model, p, {"k2": k2, "lambda": lam})
                ident = linalg.scale(ext(p, lam), linalg.ext_identity(2 * p, p))
                if bad is None and not linalg.equal(
                    expression_matrix(shifted), linalg.add(expression_matrix(spec), ident)
                ):
                    bad = f"lambda shift (expr) {model.value} p={p} k2={k2}"
                if bad is None and not linalg.equal(
                    raw_matrix(shifted), linalg.add(raw_matrix(spec), ident)
                ):
                    bad = f"lambda shift (raw) {model.value} p={p} k2={k2}"
    report(6, "generator expressions equal the raw operators, p in 1..4, k2 grid",
           bad is None, str(bad))


def test_criterion_6_p1_case51_spectrum():
    bad = None
    for k2 in K2_GRID:
        m = raw_matrix(ModelSpec(Model.SPHALERON_51, 1, {"k2": k2}))
        lams = sorted(-z.real for bs in spectrum_of_matrix(m) for z in bs.numeric)
        k = math.sqrt(float(k2))
        want = sorted([2 * k, -2 * k])
        if bad is None and not all(values_close(a, b) for a, b in zip(lams, want)):
            bad = f"k2={k2}: {lams} vs {want}"
    report(6, "p=1 sector-51 spectrum is {+2k, -2k} to 1e-9", bad is None, str(bad))


def test_criterion_6_p1_case43_spectrum_as_stated():
    """lam = 2 + 2k2 +- 2 sqrt(1 - k2 + k2^2) at p = 1, the Lame n = 2 edges.

    The exact matrix has trace -4(1+k2) and determinant 12k2, so with
    lam = -eig the mode polynomial is lam^2 - 4(1+k2) lam + 12k2.
    Erratum: the criterion was first stated with the radicand
    1 + 5k2 + k2^2, which needs the -6k2 coupling with its sign flipped
    (see module docstring).
    """
    bad = None
    for k2 in K2_GRID:
        m = raw_matrix(ModelSpec(Model.SPHALERON_43, 1, {"k2": k2}))
        trace = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if bad is None and (trace != -4 * (1 + k2) or det != 12 * k2):
            bad = f"k2={k2}: trace {trace}, det {det}, expected {-4 * (1 + k2)}, {12 * k2}"
        lams = sorted(-z.real for bs in spectrum_of_matrix(m) for z in bs.numeric)
        k2f = float(k2)
        root = math.sqrt(1 - k2f + k2f * k2f)
        want = sorted([2 + 2 * k2f - 2 * root, 2 + 2 * k2f + 2 * root])
        if bad is None and not (
            len(lams) == 2 and all(values_close(a, b) for a, b in zip(lams, want))
        ):
            bad = f"k2={k2}: solver {lams} vs {want}"
    report(6, "p=1 sector-43 spectrum is 2+2k2 +- 2 sqrt(1-k2+k2^2) to 1e-9",
           bad is None, str(bad))


def test_criterion_7_moszkowski():
    rng = seeded_rng()
    bad = None
    for p in P_RANGE:
        for _ in range(20):
            c, v = random_rational(rng), random_rational(rng)
            spec = ModelSpec(Model.MOSZKOWSKI, p, {"c": c, "V": v})
            em = expression_matrix(spec)
            if bad is None and not linalg.equal(em, raw_matrix(spec)):
                bad = f"rewrite p={p} c={c} V={v}"
                continue
            closed = closed_form_spectrum(spec)
            blocks = closed_form_blocks(spec)
            singles = {e.block: e for e in closed if e.sign == 0}
            if bad is None and em[0][0] != singles[0].base:
                bad = f"E0+ p={p}"
            last = 2 * p - 1
            if bad is None and em[last][last] != singles[p].base:
                bad = f"Ep+ p={p}"
            for k in range(1, p):
                i, j = blocks[k]
                tr = em[i][i] + em[j][j]
                det = em[i][i] * em[j][j] - em[i][j] * em[j][i]
                plus = next(e for e in closed if e.block == k and e.sign == 1)
                minus = next(e for e in closed if e.block == k and e.sign == -1)
                if bad is None and tr != ExtScalar.of(plus.base + minus.base, p):
                    bad = f"trace p={p} k={k}"
                if bad is None and det != ExtScalar.of(plus.base * minus.base - plus.radicand, p):
                    bad = f"det p={p} k={k}"
    report(7, "Moszkowski rewrite and closed forms, 20 random (c,V) per p in 1..8",
           bad is None, str(bad))


def test_criterion_8_jaynes_cummings():
    rng = seeded_rng()
    bad = None
    for p in P_RANGE:
        for omega, g in (
            (Fraction(1), Fraction(1, 10)),
            (random_rational(rng), random_rational(rng)),
            (random_rational(rng), random_rational(rng)),
        ):
            spec = ModelSpec(Model.JAYNES_CUMMINGS, p, {"omega": omega, "g": g})
            em = expression_matrix(spec)
            if bad is None and not linalg.equal(em, raw_matrix(spec)):
                bad = f"rewrite p={p} omega={omega} g={g}"
                continue
            n = 2 * p
            col0 = [em[i][0] for i in range(n)]
            e0 = omega * p + Fraction(p + 1, 2) * g
            if bad is None and (col0[0] != e0 or any(col0[i] for i in range(1, n))):
                bad = f"Lam_0 eigenvector p={p}"
            colp = [em[i][p] for i in range(n)]
            ep = Fraction(p - 1, 2) * g
            if bad is None and (colp[p] != ep or any(colp[i] for i in range(n) if i != p)):
                bad = f"Lam_p eigenvector p={p}"
            closed = closed_form_spectrum(spec)
            blocks = closed_form_blocks(spec)
            for k in range(1, p):
                i, j = blocks[k]
                tr = em[i][i] + em[j][j]
                det = em[i][i] * em[j][j] - em[i][j] * em[j][i]
                plus = next(e for e in closed if e.block == k and e.sign == 1)
                minus = next(e for e in closed if e.block == k and e.sign == -1)
                if bad is None and tr != ExtScalar.of(plus.base + minus.base, p):
                    bad = f"trace p={p} k={k}"
                if bad is None and det != ExtScalar.of(plus.base * minus.base - plus.radicand, p):
                    bad = f"det p={p} k={k}"
    report(8, "Jaynes-Cummings rewrite, eigenvectors and block identities, p in 1..8",
           bad is None, str(bad))


def test_criterion_9_numeric_exact_agreement():
    rng = seeded_rng()
    bad = None
    specs = []
    for p in P_RANGE:
        specs.append(ModelSpec(Model.MOSZKOWSKI, p, {"c": random_rational(rng), "V": random_rational(rng)}))
        specs.append(ModelSpec(Model.JAYNES_CUMMINGS, p, {"omega": random_rational(rng), "g": random_rational(rng)}))
    for spec in specs:
        m = expression_matrix(spec)
        closed = sorted(e.value() for e in closed_form_spectrum(spec))
        # spectrum_of_matrix re-checks the exact 2x2 path against the
        # numeric path internally
        numeric = sorted(z.real for bs in spectrum_of_matrix(m) for z in bs.numeric)
        if bad is None and not all(values_close(a, b) for a, b in zip(closed, numeric)):
            bad = f"{spec.model.value} p={spec.p}"
    for k2 in K2_GRID:
        for model in SPHALERON_MODELS:
            m = raw_matrix(ModelSpec(model, 1, {"k2": k2}))
            spectrum_of_matrix(m)  # exact/numeric agreement enforced inside
    report(9, "closed-form and exact eigenvalues match the numeric solver to 1e-9",
           bad is None, str(bad))
