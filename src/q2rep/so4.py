"""so(4) = sl(2) + sl(2) in the tensor representation D^{(p-1)/2} x D^{1/2}.

The J family acts on the spin-(p-1)/2 factor, the K family on the spin-1/2
factor.  The unitary matrix entries are square roots of rationals with
assorted radicands, which do not all live in Q[sqrt(p)]; they are kept
exact in a small multi-radical layer: finite Q-linear combinations of
sqrt(r) over squarefree positive integers r.  The commutation relations
and the Casimirs are checked in that layer.

The identification with q(2) is checked over Q[sqrt(p)] instead.  The
diagonal similarity D = diag(sqrt(C(p-1, i_m))) on the tensor index makes
D^-1 X D rational for every J/K generator X, and D^-1 T rational for the
Lam/chi map T, so every entry there is an `ExtScalar`.

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
from .scalars import ExtScalar, rational_sqrt


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

    def is_rational(self) -> bool:
        return set(self.terms) <= {1}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.terms.get(1, Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r, c in sorted(self.terms.items()):
            parts.append(str(c) if r == 1 else f"{c}*sqrt({r})")
        return " + ".join(parts)


RAD_ZERO = Radical({})
RAD_ONE = Radical.rational(1)


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


def _tensor_index(i_m: int, i_mu: int, p: int) -> int:
    # i_m = 0..p-1 counts m downward from (p-1)/2; i_mu = 0 for +1/2, 1 for -1/2
    return 2 * i_m + i_mu


def so4_matrices(p: int) -> dict[So4Generator, Matrix]:
    """Exact matrices of the six J/K generators in the tensor basis, built in one pass."""
    rows = {g: [{} for _ in range(2 * p)] for g in (J0, JP, JM, K0, KP, KM)}
    j = Fraction(p - 1, 2)
    for i_m in range(p):
        m = j - i_m
        for i_mu in range(2):
            col = _tensor_index(i_m, i_mu, p)
            rows[J0][col][col] = Radical.rational(m)
            rows[K0][col][col] = Radical.rational(Fraction(1, 2) - i_mu)
            # J+ (J-) raises (lowers) m, one step up (down) the ordering
            if i_m > 0:
                rows[JP][_tensor_index(i_m - 1, i_mu, p)][col] = Radical.sqrt((j - m) * (j + m + 1))
            if i_m < p - 1:
                rows[JM][_tensor_index(i_m + 1, i_mu, p)][col] = Radical.sqrt((j + m) * (j - m + 1))
        # K+ raises mu = -1/2 to +1/2 and K- lowers it back
        up, down = _tensor_index(i_m, 0, p), _tensor_index(i_m, 1, p)
        rows[KP][up][down] = rows[KM][down][up] = RAD_ONE
    return {g: linalg.sparse(2 * p, RAD_ZERO, r) for g, r in rows.items()}


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
            col[_tensor_index(k, 0, p)] = amp  # m = (p-1)/2 - k, mu = +1/2
        if k > 0:
            amp = Radical.sqrt(norm * Fraction(k, p))
            col[_tensor_index(k - 1, 1, p)] = amp  # m = (p+1)/2 - k, mu = -1/2
        cols.append(col)
    for l in range(1, p):
        col = {}
        norm = Fraction(factorial(p - l - 1) * factorial(l - 1), pf)
        col[_tensor_index(l, 0, p)] = Radical.sqrt(norm * Fraction(l, p))
        col[_tensor_index(l - 1, 1, p)] = -Radical.sqrt(norm * Fraction(p - l, p))
        cols.append(col)
    return linalg.transpose(linalg.sparse(n, RAD_ZERO, cols))


def _so4_combo(
    parts: list[tuple[Fraction | Radical | ExtScalar, list[So4Generator]]], mats: dict, one=RAD_ONE
) -> Matrix:
    terms = ((c, [mats[g] for g in factors]) for c, factors in parts)
    return linalg.sum_of_products(terms, len(mats[J0]), one)


def _similar(a: Matrix, w_row: list[int], w_col: list[int], name: str, p: int) -> Matrix:
    """The matrix diag(w_row)^(-1/2) a diag(w_col)^(1/2) over ExtScalar at p.

    Each term c sqrt(r) of an entry becomes c sqrt(r w_col / w_row), which
    must be rational; a ValueError names the matrix and the entry otherwise.
    """
    rows = []
    for i, row in enumerate(a):
        out = {}
        for j, x in row.nz.items():
            v = 0
            for r, c in x.terms.items():
                root = rational_sqrt(Fraction(r * w_col[j], w_row[i]))
                if root is None:
                    raise ValueError(
                        f"{name} entry ({i}, {j}) = {x!r} is irrational under the similarity D"
                    )
                v += c * root
            out[j] = ExtScalar(v, 0, p)
        rows.append(out)
    return linalg.sparse(len(w_col), ExtScalar.zero(p), rows)


@dataclass(frozen=True)
class IdentificationLine:
    label: str
    passed: bool
    first_difference: tuple[int, int] | None


def identification_lines(
    p: int, mats: dict[So4Generator, Matrix], lc: dict[GeneratorId, Matrix]
) -> list[IdentificationLine]:
    """Check the q(2) <-> so(4) identification as exact matrix identities.

    `mats` are the so(4) matrices (`so4_matrices`) and `lc` the eight
    generators' LAMBDA_CHI matrices at this p.  Both sides are mapped into
    the tensor basis: with T the column map from (Lam, chi) coordinates, M
    the q(2) matrix and S the so(4) expression, the identity is S T = T M,
    which avoids inverting T.  It is checked as S' T' = T' M over
    Q[sqrt(p)], with S' = D^-1 S D and T' = D^-1 T for the diagonal
    D = diag(sqrt(C(p-1, i_m))) that makes the J/K matrices and T rational.
    D is invertible and diagonal, so each verdict and first differing entry
    is that of S T = T M.  Raises ValueError when a J/K or T entry stays
    irrational under D.
    """
    one = Fraction(1)
    two = Fraction(2)
    sp = ExtScalar.sqrt_p(p)
    two_over_sp = ExtScalar(0, Fraction(2, p), p)
    half = Fraction(1, 2)

    # each line: label, the q(2) combination (algebra.COMBINATIONS), the so(4) side
    lines: list[tuple[str, str, list]] = [
        ("b- = J+ + K+", "b-", [(one, [JP]), (one, [KP])]),
        ("b+ = J- + K-", "b+", [(one, [JM]), (one, [KM])]),
        ("e00_0 - e11_0 = 2J0 + 2K0", "e0_diff", [(two, [J0]), (two, [K0])]),
        ("f- = sqrt(p) K+", "f-", [(sp, [KP])]),
        ("f+ = sqrt(p) K-", "f+", [(sp, [KM])]),
        ("e00_1 - e11_1 = 2 sqrt(p) K0", "e1_diff", [(2 * sp, [K0])]),
        ("e00_0 + e11_0 = p", "e0_sum", [(Fraction(p), [])]),
        (
            "e00_1 + e11_1 = (2/sqrt(p)) (2 J0 K0 + J+ K- + J- K+ + 1/2)",
            "e1_sum",
            [
                (two_over_sp * Fraction(2), [J0, K0]),
                (two_over_sp, [JP, KM]),
                (two_over_sp, [JM, KP]),
                (two_over_sp * half, []),
            ],
        ),
    ]
    w = [comb(p - 1, t // 2) for t in range(2 * p)]  # D^2 on the tensor index
    scaled = {g: _similar(x, w, w, f"{g.family}{g.component}", p) for g, x in mats.items()}
    T = _similar(tensor_to_lambda_chi(p), w, [1] * (2 * p), "T", p)
    q2 = combination_matrices({name for _, name, _ in lines}, lc, p)
    out = []
    for label, name, so4_parts in lines:
        lhs = linalg.matmul(T, q2[name])
        rhs = linalg.matmul(_so4_combo(so4_parts, scaled, ExtScalar.one(p)), T)
        diff = linalg.first_difference(rhs, lhs)
        out.append(IdentificationLine(label, diff is None, diff))
    return out


def so4_relation_report(p: int) -> list[tuple[str, bool]]:
    """The commutation relations that hold in this tensor representation.

    Note [K+, K-] closes onto 2 K0 here (the spin-1/2 matrices), matching
    {K+, K-} = I and K0^2 = I/4; all q(2) identification lines are
    consistent with that normalization.
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
        (label, linalg.equal(_so4_combo(lhs, mats), _so4_combo(rhs, mats)))
        for label, lhs, rhs in relations
    ]


def casimir(which: int, p: int, mats: dict[So4Generator, Matrix]) -> tuple[Matrix, Fraction]:
    """Build C1 or C2 from the so(4) matrices `mats` at p; returns (matrix, scalar value).

    C1 = J0^2 + K0^2 + (1/2){J+, J-} + (1/2){K+, K-}
    C2 = J0^2 - K0^2 + (1/2){J+, J-} - (1/2){K+, K-}

    Raises ValueError when the result is not an exact scalar matrix.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    sign = 1 if which == 1 else -1
    half = Fraction(1, 2)
    j_part = [(1, [J0, J0]), (half, [JP, JM]), (half, [JM, JP])]
    k_part = [(sign, [K0, K0]), (sign * half, [KP, KM]), (sign * half, [KM, KP])]
    out = _so4_combo(j_part + k_part, mats)
    if not linalg.is_scalar_matrix(out):
        raise ValueError(f"Casimir C{which} is not scalar for p={p}")
    return out, out[0][0].rational_value()


def gram_in_tensor_basis(p: int) -> Matrix:
    """T^t T: diagonal and rational; ties the V_p metric to the tensor metric."""
    T = tensor_to_lambda_chi(p)
    return linalg.matmul(linalg.transpose(T), T)
