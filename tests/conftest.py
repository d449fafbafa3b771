import os
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, Phase, settings

from q2rep import linalg, rep
from q2rep.algebra import GENERATORS, SuperElement, bracket
from q2rep.rep import Basis, change_of_basis
from q2rep.scalars import ExtScalar, inv_sqrt_p

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The default's examples without the shrink phase: a failing property test
# reports the counterexample it drew, unshrunk, in seconds rather than
# minutes.  Q2REP_HYPOTHESIS_PROFILE=no-shrink selects it for runs that are
# expected to fail, such as checks against a mutated copy.
settings.register_profile(
    "no-shrink",
    parent=settings.get_profile("default"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile(os.environ.get("Q2REP_HYPOTHESIS_PROFILE", "default"))


def seeded_rng() -> random.Random:
    """RNG for randomized-parameter sweeps; Q2REP_SEED overrides the default."""
    return random.Random(int(os.environ.get("Q2REP_SEED", "20250809")))


def random_rational(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.randint(1, 9)
    return Fraction(num, den)


@pytest.fixture
def rng() -> random.Random:
    return seeded_rng()


def reference_matrices(basis, p):
    """The eight matrices by ExtScalar algebra, as the build was before it ran on ints.

    The integer action I_g times 1/sqrt(p)^parity, conjugated by the
    change_of_basis matrices, which come from the exact solve against
    expansion_in_rvw.
    """
    n, one, isp = 2 * p, ExtScalar.one(p), inv_sqrt_p(p)
    to_basis = change_of_basis(Basis.LAMBDA_CHI, basis, p)
    from_basis = change_of_basis(basis, Basis.LAMBDA_CHI, p)
    out = {}
    for g in GENERATORS:
        c = isp if g.parity else one
        rows = [{j: c * v for j, v in row.items()} for row in rep._lc_rows(g, p)]
        lc = linalg.sparse(n, ExtScalar.zero(p), rows)
        out[g] = linalg.matmul(to_basis, linalg.matmul(lc, from_basis))
    return out


def reference_sweep(p, mats):
    """verify's homomorphism sweep over Q(sqrt(p)): (where, ok) for each pair of each basis.

    `mats` maps each basis to its eight ExtScalar matrices.  Each check
    builds [[M_x, M_y]] and the matrix of the bracket [[x, y]] of algebra
    elements, and compares them.
    """
    n, one = 2 * p, ExtScalar.one(p)
    for basis in Basis:
        ms = mats[basis]
        for gx, gy in product(GENERATORS, repeat=2):
            sign = 1 if gx.parity and gy.parity else -1
            lhs = linalg.sum_of_products([(1, [ms[gx], ms[gy]]), (sign, [ms[gy], ms[gx]])], n, one)
            xy = bracket(SuperElement.basis(gx, p), SuperElement.basis(gy, p))
            rhs = linalg.sum_of_products([(c, [ms[g]]) for g, c in xy.coeffs.items()], n, one)
            ok = linalg.equal(lhs, rhs)
            yield None if ok else f"p={p} basis={basis.value} pair=({gx.name},{gy.name})", ok
