"""The Lie superalgebra q(2): 8 graded basis generators and their bracket.

Basis elements are e_{ij}^sigma with i, j in {0, 1} and parity sigma in
{even, odd}; the even four span gl(2).  The bracket on homogeneous elements

    [[e_ij^s, e_kl^t]] = delta_jk e_il^{s+t} - (-1)^{st} delta_il e_kj^{s+t}

is a commutator unless both arguments are odd, in which case it is an
anticommutator.  Mixed-parity elements are handled by splitting into
homogeneous parts and extending bilinearly.

A generator is named by `GeneratorId`, a named tuple (i, j, parity): the
tables keyed by generators, here and in `rep` and `diffop`, hash and
compare their keys as plain tuples do.

Two tables here are what the other modules read.  `_STRUCTURE` holds the
integer structure constants; the graded Jacobi and antisymmetry checks run
on them directly, with no coefficient ring.  `COMBINATIONS` names the
ladder generators b+-, f+- and the diagonal combinations e0_sum/e0_diff =
e00_0 +- e11_0 and e1_sum/e1_diff = e00_1 +- e11_1, in which the
realizations, the models and the so(4) identification are written;
`AS_COMBINATIONS` is its inverse, e00 = (sum + diff)/2 and e11 = (sum -
diff)/2, read only by `diffop.realization`.  The V_p action table in `rep`
is written on the generators themselves and reads neither table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .scalars import ExtScalar, RationalLike

EVEN = 0
ODD = 1


class _Indices(NamedTuple):
    i: int
    j: int
    parity: int


class GeneratorId(_Indices):
    """The key e_ij^parity: a tuple (i, j, parity), so it hashes, compares and
    sorts in C wherever it indexes a table."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, parity: int) -> GeneratorId:
        if i not in (0, 1) or j not in (0, 1) or parity not in (0, 1):
            raise ValueError(f"invalid generator indices ({i},{j},{parity})")
        return super().__new__(cls, i, j, parity)

    @property
    def name(self) -> str:
        return f"e{self.i}{self.j}_{self.parity}"

    def __str__(self) -> str:
        return ALIAS_OF.get(self, self.name)


GENERATORS: tuple[GeneratorId, ...] = tuple(
    GeneratorId(i, j, s) for s in (EVEN, ODD) for i in (0, 1) for j in (0, 1)
)

B_PLUS = GeneratorId(1, 0, EVEN)
B_MINUS = GeneratorId(0, 1, EVEN)
F_PLUS = GeneratorId(1, 0, ODD)
F_MINUS = GeneratorId(0, 1, ODD)
E00_0 = GeneratorId(0, 0, EVEN)
E11_0 = GeneratorId(1, 1, EVEN)
E00_1 = GeneratorId(0, 0, ODD)
E11_1 = GeneratorId(1, 1, ODD)

ALIASES: dict[str, GeneratorId] = {
    "b+": B_PLUS,
    "b-": B_MINUS,
    "f+": F_PLUS,
    "f-": F_MINUS,
}
ALIAS_OF: dict[GeneratorId, str] = {g: n for n, g in ALIASES.items()}


def generator_by_name(name: str) -> GeneratorId:
    if name in ALIASES:
        return ALIASES[name]
    for g in GENERATORS:
        if g.name == name:
            return g
    raise KeyError(f"unknown generator name {name!r}")


class SuperElement:
    """A formal Q[sqrt(p)]-linear combination of the 8 basis generators.

    Zero coefficients are dropped, so the stored mapping is canonical.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: dict[GeneratorId, ExtScalar] | None = None) -> None:
        object.__setattr__(self, "p", p)
        clean = {}
        for g, c in (coeffs or {}).items():
            c = ExtScalar.of(c, p)
            if c:
                clean[g] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SuperElement is immutable")

    @classmethod
    def basis(cls, g: GeneratorId, p: int) -> SuperElement:
        return cls(p, {g: ExtScalar.one(p)})

    def __add__(self, other: SuperElement) -> SuperElement:
        if self.p != other.p:
            raise ValueError("p mismatch")
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, ExtScalar.zero(self.p)) + c
        return SuperElement(self.p, out)

    def __sub__(self, other: SuperElement) -> SuperElement:
        return self + (-other)

    def __neg__(self) -> SuperElement:
        return SuperElement(self.p, {g: -c for g, c in self.coeffs.items()})

    def scaled(self, c: ExtScalar | RationalLike) -> SuperElement:
        c = ExtScalar.of(c, self.p) if not isinstance(c, ExtScalar) else c
        return SuperElement(self.p, {g: c * v for g, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SuperElement)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"({c})*{g}" for g, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def _bracket_terms(a: GeneratorId, b: GeneratorId) -> tuple[tuple[GeneratorId, int], ...]:
    s, t = a.parity, b.parity
    out = []
    if a.j == b.i:
        out.append((GeneratorId(a.i, b.j, (s + t) % 2), 1))
    if a.i == b.j:
        out.append((GeneratorId(b.i, a.j, (s + t) % 2), 1 if (s and t) else -1))  # -(-1)^{st}
    return tuple(out)


_STRUCTURE = {(a, b): _bracket_terms(a, b) for a, b in product(GENERATORS, repeat=2)}


def structure_terms(a: GeneratorId, b: GeneratorId) -> tuple[tuple[GeneratorId, int], ...]:
    """[[a, b]] as the (generator, +-1) terms of the formula above, unmerged:
    a = b = e_ii^s gives two terms on e_ii^0, which cancel for even s."""
    return _STRUCTURE[a, b]


COMBINATIONS: dict[str, dict[GeneratorId, int]] = {
    "b+": {B_PLUS: 1},
    "b-": {B_MINUS: 1},
    "f+": {F_PLUS: 1},
    "f-": {F_MINUS: 1},
    "e0_sum": {E00_0: 1, E11_0: 1},
    "e0_diff": {E00_0: 1, E11_0: -1},
    "e1_sum": {E00_1: 1, E11_1: 1},
    "e1_diff": {E00_1: 1, E11_1: -1},
}

_HALF = Fraction(1, 2)
AS_COMBINATIONS: dict[GeneratorId, tuple[tuple[str, Fraction], ...]] = {
    B_PLUS: (("b+", Fraction(1)),),
    B_MINUS: (("b-", Fraction(1)),),
    F_PLUS: (("f+", Fraction(1)),),
    F_MINUS: (("f-", Fraction(1)),),
    E00_0: (("e0_sum", _HALF), ("e0_diff", _HALF)),
    E11_0: (("e0_sum", _HALF), ("e0_diff", -_HALF)),
    E00_1: (("e1_sum", _HALF), ("e1_diff", _HALF)),
    E11_1: (("e1_sum", _HALF), ("e1_diff", -_HALF)),
}


def bracket(x: SuperElement, y: SuperElement) -> SuperElement:
    """Bilinear extension of the bracket; anticommutator on odd-odd parts."""
    if x.p != y.p:
        raise ValueError("p mismatch")
    out: dict[GeneratorId, ExtScalar] = {}
    for gx, cx in x.coeffs.items():
        for gy, cy in y.coeffs.items():
            for g, k in _STRUCTURE[gx, gy]:
                c = cx * cy * k
                out[g] = out[g] + c if g in out else c
    return SuperElement(x.p, out)


def _graded_sign(a: GeneratorId, b: GeneratorId) -> int:
    """(-1)^{|a||b|}."""
    return -1 if (a.parity and b.parity) else 1


def _merged(terms) -> dict[GeneratorId, int]:
    """Sum (generator, integer) terms per generator, dropping zeros."""
    out: dict[GeneratorId, int] = {}
    for g, k in terms:
        out[g] = out.get(g, 0) + k
    return {g: k for g, k in out.items() if k}


def graded_jacobi_sum(gx: GeneratorId, gy: GeneratorId, gz: GeneratorId) -> dict[GeneratorId, int]:
    """The nonzero integer coefficients of the graded Jacobi sum of a basis triple,

        (-1)^{|x||z|} [[x, [[y, z]]]] + (-1)^{|y||x|} [[y, [[z, x]]]]
            + (-1)^{|z||y|} [[z, [[x, y]]]],

    read from the structure constants in one pass; empty when the identity holds.
    """
    out: dict[GeneratorId, int] = {}
    for a, b, c in ((gx, gy, gz), (gy, gz, gx), (gz, gx, gy)):
        sign = _graded_sign(a, c)
        for inner, k in _STRUCTURE[b, c]:
            k *= sign
            for g, m in _STRUCTURE[a, inner]:
                if v := out.get(g, 0) + k * m:
                    out[g] = v
                else:
                    out.pop(g, None)
    return out


def check_graded_jacobi() -> tuple[bool, int, tuple | None]:
    """Sweep the graded Jacobi identity over all 8^3 basis triples.

    Returns (passed, number checked, first violating triple or None).
    """
    for checked, triple in enumerate(product(GENERATORS, repeat=3), start=1):
        if graded_jacobi_sum(*triple):
            return False, checked, triple
    return True, checked, None


def graded_antisymmetry_holds() -> bool:
    """[[x, y]] = -(-1)^{|x||y|} [[y, x]] on all homogeneous basis pairs."""
    return all(
        _merged(_STRUCTURE[x, y])
        == _merged((g, -_graded_sign(x, y) * k) for g, k in _STRUCTURE[y, x])
        for x, y in product(GENERATORS, repeat=2)
    )
