from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q2rep import algebra, cli
from q2rep.algebra import (
    AS_COMBINATIONS,
    B_MINUS,
    B_PLUS,
    COMBINATIONS,
    E00_0,
    E00_1,
    E11_0,
    F_MINUS,
    F_PLUS,
    GENERATORS,
    GeneratorId,
    SuperElement,
    bracket,
    check_graded_jacobi,
    generator_by_name,
    graded_antisymmetry_holds,
)
from q2rep.scalars import ExtScalar


def basis(g, p=2):
    return SuperElement.basis(g, p)


def test_generator_enumeration():
    assert len(GENERATORS) == 8
    assert len({g.name for g in GENERATORS}) == 8
    assert generator_by_name("b+") == GeneratorId(1, 0, 0)
    assert generator_by_name("e01_1") == F_MINUS


def test_generator_id_contract():
    # index validation, (i, j, parity) order, repr (the failure goldens print it) and alias
    for bad in ((2, 0, 0), (0, 0, 2), (0, -1, 0)):
        with pytest.raises(ValueError):
            GeneratorId(*bad)
    assert sorted(GENERATORS) == sorted(GENERATORS, key=lambda g: (g.i, g.j, g.parity))
    assert sorted(GENERATORS)[:3] == [E00_0, E00_1, B_MINUS]
    assert repr(E00_0) == "GeneratorId(i=0, j=0, parity=0)"
    assert str(B_PLUS) == "b+" and str(E00_1) == E00_1.name == "e00_1"
    assert GeneratorId(1, 0, 0) == B_PLUS and hash(GeneratorId(1, 0, 0)) == hash(B_PLUS)


def test_bracket_even_pair():
    # [e00_0, e01_0] = e01_0 (b- is the alias for e01_0)
    out = bracket(basis(E00_0), basis(B_MINUS))
    assert out == basis(B_MINUS)


def test_bracket_odd_odd_is_anticommutator():
    # {f+, f-} = e11_0 + e00_0
    out = bracket(basis(F_PLUS), basis(F_MINUS))
    assert out == basis(E11_0) + basis(E00_0)


def test_bracket_odd_square():
    # {e00_1, e00_1} = 2 e00_0
    out = bracket(basis(E00_1), basis(E00_1))
    assert out == basis(E00_0).scaled(Fraction(2))


def test_graded_antisymmetry():
    assert graded_antisymmetry_holds()


def test_graded_jacobi_full_sweep():
    ok, checked, violation = check_graded_jacobi()
    assert ok and checked == 512 and violation is None


def test_negated_structure_entry_fails_the_sweeps(monkeypatch, capsys):
    # the checks read the structure table itself, so a wrong sign there shows
    terms = algebra._STRUCTURE[B_PLUS, F_MINUS]
    monkeypatch.setitem(algebra._STRUCTURE, (B_PLUS, F_MINUS), tuple((g, -k) for g, k in terms))
    ok, checked, violation = check_graded_jacobi()
    assert not ok and checked == 22 and violation == (E00_0, B_PLUS, F_MINUS)
    assert not graded_antisymmetry_holds()
    assert cli.main(["verify", "--p", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("graded-jacobi") and "FAIL (triple (" in line for line in lines)
    assert any(line.startswith("rep-homomorphism") and "FAIL (" in line for line in lines)


def test_combination_tables_are_inverse():
    # each generator is the weighted sum of the forward combinations its inverse entry names
    for g in GENERATORS:
        total = {}
        for name, weight in AS_COMBINATIONS[g]:
            for h, k in COMBINATIONS[name].items():
                total[h] = total.get(h, 0) + weight * k
        assert {h: c for h, c in total.items() if c} == {g: 1}, g.name


def test_bracket_parity_grading_all_64_pairs():
    # [[x_s, y_t]] is homogeneous of parity s + t for every basis pair
    for gx, gy in product(GENERATORS, repeat=2):
        out = bracket(basis(gx), basis(gy))
        want = (gx.parity + gy.parity) % 2
        assert all(g.parity == want for g in out.coeffs), (gx.name, gy.name)


def test_even_part_closes_as_gl2():
    evens = [g for g in GENERATORS if g.parity == 0]
    assert len(evens) == 4
    for gx, gy in product(evens, repeat=2):
        out = bracket(basis(gx), basis(gy))
        assert all(g.parity == 0 for g in out.coeffs)
        # gl(2) structure constants: [E_ij, E_kl] = d_jk E_il - d_li E_kj
        expected = SuperElement(2)
        if gx.j == gy.i:
            expected = expected + basis(GeneratorId(gx.i, gy.j, 0))
        if gy.j == gx.i:
            expected = expected - basis(GeneratorId(gy.i, gx.j, 0))
        assert out == expected, (gx.name, gy.name)


def test_mixed_parity_bracket_splits_bilinearly():
    x = basis(B_PLUS) + basis(F_MINUS)
    y = basis(E00_0)
    parts = bracket(basis(B_PLUS), y) + bracket(basis(F_MINUS), y)
    assert bracket(x, y) == parts


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def elements(draw, p=2):
    terms = draw(st.dictionaries(st.sampled_from(GENERATORS), coeffs, max_size=4))
    return SuperElement(p, {g: ExtScalar.of(c, p) for g, c in terms.items()})


@given(elements(), elements(), coeffs)
def test_bracket_is_bilinear(x, y, c):
    assert bracket(x.scaled(ExtScalar.of(c, 2)), y) == bracket(x, y).scaled(ExtScalar.of(c, 2))
    assert bracket(x + y, x) == bracket(x, x) + bracket(y, x)
