"""so(4) = sl(2) + sl(2) in the tensor representation D^{(p-1)/2} x D^{1/2}.

The J family acts on the spin-(p-1)/2 factor, the K family on the spin-1/2
factor.  The six generators are the integer ladders D^-1 X D over
Q[sqrt(p)] of the unitary spin matrices X, for the diagonal similarity
D = diag(sqrt(C(p-1, i_m))) on the tensor index: J+ has the entries p - i_m
and J- the entries i_m + 1, and J0, K0 and K+- are unchanged.  The
commutation relations and the Casimirs are similarity invariants, so they
are checked on the ladders as they are.

The identification with q(2) is checked over Q[sqrt(p)] through
T' = D^-1 T, built directly from its rational closed form.  Only the
unitary Lam/chi map T, whose entries are square roots of rationals with
assorted radicands, is kept in a small multi-radical layer (finite
Q-linear combinations of sqrt(r), r squarefree), for the Gram tie T^t T.

Tensor basis ordering: m descending from (p-1)/2 to -(p-1)/2 in integer
steps, and within each m the spin-1/2 label mu = +1/2 before mu = -1/2.
Nothing is memoized: `so4_matrices` builds all six J/K matrices in one pass,
and the identification and Casimir checks take them, and the Lam/chi
matrices they read, from their caller, which builds each once per p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from . import linalg
from .algebra import GeneratorId
from .linalg import Matrix
from .rep import combination_matrices
from .scalars import ExtScalar, inv_sqrt_p


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = square * squarefree; returns (sqrt(square), squarefree)."""
    if n <= 0:
        raise ValueError("positive integers only")
    outer, inner = 1, 1
    d = 2
    while d * d <= n:
        exp = 0
        while n % d == 0:
            n //= d
            exp += 1
        outer *= d ** (exp // 2)
        if exp % 2:
            inner *= d
        d += 1
    inner *= n
    return outer, inner


class Radical:
    """A finite Q-linear combination of sqrt(r) for squarefree integers r."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None) -> None:
        clean = {}
        for r, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[r] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Radical is immutable")

    @classmethod
    def rational(cls, value: Fraction | int) -> Radical:
        return cls({1: Fraction(value)})

    @classmethod
    def sqrt(cls, value: Fraction | int) -> Radical:
        """Exact sqrt of a nonnegative rational: sqrt(a/b) = sqrt(ab)/b."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("negative radicand")
        if value == 0:
            return cls({})
        outer, inner = _squarefree_split(value.numerator * value.denominator)
        return cls({inner: Fraction(outer, value.denominator)})

    def __add__(self, other: Radical) -> Radical:
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out.get(r, Fraction(0)) + c
        return Radical(out)

    def __neg__(self) -> Radical:
        return Radical({r: -c for r, c in self.terms.items()})

    def __sub__(self, other: Radical) -> Radical:
        return self + (-other)

    def __mul__(self, other: object) -> Radical:
        if isinstance(other, (int, Fraction)):
            return Radical({r: c * other for r, c in self.terms.items()})
        if not isinstance(other, Radical):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                # r1 = g a and r2 = g b are squarefree, so sqrt(r1) sqrt(r2) = g sqrt(a b)
                g = gcd(r1, r2)
                inner = r1 // g * (r2 // g)
                out[inner] = out.get(inner, Fraction(0)) + c1 * c2 * g
        return Radical(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Radical.rational(other)
        if not isinstance(other, Radical):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r, c in sorted(self.terms.items()):
            parts.append(str(c) if r == 1 else f"{c}*sqrt({r})")
        return " + ".join(parts)


RAD_ZERO = Radical({})


@dataclass(frozen=True)
class So4Generator:
    family: str  # "J" or "K"
    component: str  # "0", "+", "-"

    def __post_init__(self) -> None:
        if self.family not in ("J", "K") or self.component not in ("0", "+", "-"):
            raise ValueError(f"invalid so(4) generator {self.family}{self.component}")


J0 = So4Generator("J", "0")
JP = So4Generator("J", "+")
JM = So4Generator("J", "-")
K0 = So4Generator("K", "0")
KP = So4Generator("K", "+")
KM = So4Generator("K", "-")


def _tensor_index(i_m: int, i_mu: int) -> int:
    # i_m = 0..p-1 counts m downward from (p-1)/2; i_mu = 0 for +1/2, 1 for -1/2
    return 2 * i_m + i_mu


def so4_matrices(p: int) -> dict[So4Generator, Matrix]:
    """The six J/K generators as integer ladders D^-1 X D over ExtScalar at p, built in one pass.

    No square root is taken: D makes every unitary J+- entry an integer.
    """
    rows = {g: [{} for _ in range(2 * p)] for g in (J0, JP, JM, K0, KP, KM)}
    for i_m in range(p):
        m = ExtScalar(Fraction(p - 1, 2) - i_m, 0, p)
        for i_mu in range(2):
            col = _tensor_index(i_m, i_mu)
            rows[J0][col][col] = m
            rows[K0][col][col] = ExtScalar(Fraction(1, 2) - i_mu, 0, p)
            # J+ (J-) raises (lowers) m, one step up (down) the ordering
            if i_m > 0:
                rows[JP][_tensor_index(i_m - 1, i_mu)][col] = ExtScalar(p - i_m, 0, p)
            if i_m < p - 1:
                rows[JM][_tensor_index(i_m + 1, i_mu)][col] = ExtScalar(i_m + 1, 0, p)
        # K+ raises mu = -1/2 to +1/2 and K- lowers it back
        up, down = _tensor_index(i_m, 0), _tensor_index(i_m, 1)
        rows[KP][up][down] = rows[KM][down][up] = ExtScalar.one(p)
    return {g: linalg.sparse(2 * p, ExtScalar.zero(p), r) for g, r in rows.items()}


def tensor_to_lambda_chi(p: int) -> Matrix:
    """Columns express Lam_0..Lam_p, chi_1..chi_{p-1} in tensor coordinates."""
    n = 2 * p
    cols: list[dict[int, Radical]] = []
    pf = factorial(p)
    for k in range(p + 1):
        col = {}
        norm = Fraction(factorial(p - k) * factorial(k), pf)
        if k < p:
            amp = Radical.sqrt(norm * Fraction(p - k, p))
            col[_tensor_index(k, 0)] = amp  # m = (p-1)/2 - k, mu = +1/2
        if k > 0:
            amp = Radical.sqrt(norm * Fraction(k, p))
            col[_tensor_index(k - 1, 1)] = amp  # m = (p+1)/2 - k, mu = -1/2
        cols.append(col)
    for l in range(1, p):
        col = {}
        norm = Fraction(factorial(p - l - 1) * factorial(l - 1), pf)
        col[_tensor_index(l, 0)] = Radical.sqrt(norm * Fraction(l, p))
        col[_tensor_index(l - 1, 1)] = -Radical.sqrt(norm * Fraction(p - l, p))
        cols.append(col)
    return linalg.transpose(linalg.sparse(n, RAD_ZERO, cols))


def _so4_combo(
    parts: list[tuple[Fraction | ExtScalar, list[So4Generator]]], mats: dict, p: int
) -> Matrix:
    terms = ((c, [mats[g] for g in factors]) for c, factors in parts)
    return linalg.sum_of_products(terms, 2 * p, ExtScalar.one(p))


def _scaled_tensor_map(p: int) -> Matrix:
    """T' = D^-1 T over ExtScalar at p, from its rational closed form.

    Lam_k maps to (|k, +> + |k-1, ->) / C(p, k), the first term for k < p and
    the second for k > 0, and chi_l to (l!(p-l-1)! |l, +> - (l-1)!(p-l)! |l-1, ->) / p!.
    """
    rows: list[dict[int, ExtScalar]] = [{} for _ in range(2 * p)]
    for k in range(p + 1):
        amp = ExtScalar(Fraction(1, comb(p, k)), 0, p)
        if k < p:
            rows[_tensor_index(k, 0)][k] = amp
        if k > 0:
            rows[_tensor_index(k - 1, 1)][k] = amp
    pf = factorial(p)
    for l in range(1, p):  # chi_l is column p + l
        up, down = factorial(l) * factorial(p - l - 1), factorial(l - 1) * factorial(p - l)
        rows[_tensor_index(l, 0)][p + l] = ExtScalar(Fraction(up, pf), 0, p)
        rows[_tensor_index(l - 1, 1)][p + l] = ExtScalar(Fraction(-down, pf), 0, p)
    return linalg.sparse(2 * p, ExtScalar.zero(p), rows)


# each line: label, the q(2) combination (algebra.COMBINATIONS), and the so(4)
# side as (c, k, [X_1, ..., X_n]) terms, each c sqrt(p)^k X_1 ... X_n
IDENTIFICATIONS: tuple[tuple[str, str, list], ...] = (
    ("b- = J+ + K+", "b-", [(1, 0, [JP]), (1, 0, [KP])]),
    ("b+ = J- + K-", "b+", [(1, 0, [JM]), (1, 0, [KM])]),
    ("e00_0 - e11_0 = 2J0 + 2K0", "e0_diff", [(2, 0, [J0]), (2, 0, [K0])]),
    ("f- = sqrt(p) K+", "f-", [(1, 1, [KP])]),
    ("f+ = sqrt(p) K-", "f+", [(1, 1, [KM])]),
    ("e00_1 - e11_1 = 2 sqrt(p) K0", "e1_diff", [(2, 1, [K0])]),
    ("e00_0 + e11_0 = p", "e0_sum", [(1, 2, [])]),
    (
        "e00_1 + e11_1 = (2/sqrt(p)) (2 J0 K0 + J+ K- + J- K+ + 1/2)",
        "e1_sum",
        [(4, -1, [J0, K0]), (2, -1, [JP, KM]), (2, -1, [JM, KP]), (1, -1, [])],
    ),
)


@dataclass(frozen=True)
class IdentificationLine:
    label: str
    passed: bool
    first_difference: tuple[int, int] | None


def identification_lines(
    p: int, mats: dict[So4Generator, Matrix], lc: dict[GeneratorId, Matrix]
) -> list[IdentificationLine]:
    """Check the q(2) <-> so(4) identification, line by line of IDENTIFICATIONS.

    `mats` are the so(4) ladders (`so4_matrices`) and `lc` the eight
    generators' LAMBDA_CHI matrices at this p.  Both sides are mapped into
    the tensor basis: with T the column map from (Lam, chi) coordinates, M
    the q(2) matrix and S the so(4) expression, the identity is S T = T M,
    which avoids inverting T.  It is checked as S' T' = T' M over
    Q[sqrt(p)], with S' = D^-1 S D the expression in the ladders and
    T' = D^-1 T.  D is invertible and diagonal, so each verdict and first
    differing entry is that of S T = T M.  T' is built from its closed form.
    """
    powers = {-1: inv_sqrt_p(p), 0: 1, 1: ExtScalar.sqrt_p(p), 2: p}  # sqrt(p)^k
    T = _scaled_tensor_map(p)
    q2 = combination_matrices({name for _, name, _ in IDENTIFICATIONS}, lc, p)
    out = []
    for label, name, so4_parts in IDENTIFICATIONS:
        parts = [(c * powers[k], factors) for c, k, factors in so4_parts]
        lhs = linalg.matmul(T, q2[name])
        rhs = linalg.matmul(_so4_combo(parts, mats, p), T)
        diff = linalg.first_difference(rhs, lhs)
        out.append(IdentificationLine(label, diff is None, diff))
    return out


def so4_relation_report(p: int) -> list[tuple[str, bool]]:
    """The commutation relations that hold in this tensor representation.

    They are checked on the integer ladders of `so4_matrices`, where they
    hold exactly when they hold for the unitary matrices.  Note [K+, K-]
    closes onto 2 K0 here (the spin-1/2 matrices), matching {K+, K-} = I
    and K0^2 = I/4; all q(2) identification lines are consistent with that
    normalization.
    """

    def bracket(a: So4Generator, b: So4Generator, sign: int) -> list:
        return [(1, [a, b]), (sign, [b, a])]  # [a, b] for sign -1, {a, b} for +1

    relations = [
        ("[J0, J+] = +J+", bracket(J0, JP, -1), [(1, [JP])]),
        ("[J0, J-] = -J-", bracket(J0, JM, -1), [(-1, [JM])]),
        ("[J+, J-] = 2 J0", bracket(JP, JM, -1), [(2, [J0])]),
        ("[K0, K+] = +K+", bracket(K0, KP, -1), [(1, [KP])]),
        ("[K0, K-] = -K-", bracket(K0, KM, -1), [(-1, [KM])]),
        ("[K+, K-] = 2 K0", bracket(KP, KM, -1), [(2, [K0])]),
        ("(K+)^2 = 0", [(1, [KP, KP])], []),
        ("(K-)^2 = 0", [(1, [KM, KM])], []),
        ("K0^2 = I/4", [(1, [K0, K0])], [(Fraction(1, 4), [])]),
        ("{K+, K-} = I", bracket(KP, KM, 1), [(1, [])]),
        ("{K0, K+} = 0", bracket(K0, KP, 1), []),
        ("{K0, K-} = 0", bracket(K0, KM, 1), []),
    ]
    relations += [
        (f"[{a.family}{a.component}, {b.family}{b.component}] = 0", bracket(a, b, -1), [])
        for a in (J0, JP, JM)
        for b in (K0, KP, KM)
    ]
    mats = so4_matrices(p)
    return [
        (label, linalg.equal(_so4_combo(lhs, mats, p), _so4_combo(rhs, mats, p)))
        for label, lhs, rhs in relations
    ]


def casimir(which: int, p: int, mats: dict[So4Generator, Matrix]) -> tuple[Matrix, Fraction]:
    """Build C1 or C2 from the so(4) ladders `mats` at p; returns (matrix, rational scalar value).

    C1 = J0^2 + K0^2 + (1/2){J+, J-} + (1/2){K+, K-}
    C2 = J0^2 - K0^2 + (1/2){J+, J-} - (1/2){K+, K-}

    On the ladders D^-1 X D each Casimir is D^-1 C D, scalar exactly when C
    is.  Raises ValueError when the result is not an exact rational scalar matrix.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    sign = 1 if which == 1 else -1
    half = Fraction(1, 2)
    j_part = [(1, [J0, J0]), (half, [JP, JM]), (half, [JM, JP])]
    k_part = [(sign, [K0, K0]), (sign * half, [KP, KM]), (sign * half, [KM, KP])]
    out = _so4_combo(j_part + k_part, mats, p)
    if not linalg.is_scalar_matrix(out):
        raise ValueError(f"Casimir C{which} is not scalar for p={p}")
    if not out[0][0].is_rational():
        raise ValueError(f"Casimir C{which} = {out[0][0]} is not rational for p={p}")
    return out, out[0][0].rat


def gram_in_tensor_basis(p: int) -> Matrix:
    """T^t T: diagonal and rational; ties the V_p metric to the tensor metric."""
    T = tensor_to_lambda_chi(p)
    return linalg.matmul(linalg.transpose(T), T)
