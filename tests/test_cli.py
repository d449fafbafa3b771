import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q2rep import cli, diffop, linalg, rep, so4, spectra
from q2rep.algebra import B_MINUS, E00_0, E11_1, F_PLUS, GENERATORS
from q2rep.models import Model, ModelSpec
from q2rep.cli import main
from q2rep.rep import Basis, rep_matrices
from q2rep.scalars import ExtScalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def suite_lines(out):
    """{suite: (number of checks, status)} from the table that verify prints."""
    return {
        parts[0]: (int(parts[1]), " ".join(parts[3:]))
        for parts in map(str.split, out.splitlines())
        if len(parts) >= 4 and parts[2] == "checks"
    }


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--p", "1..2")
    assert code == 0
    assert "graded-jacobi" in out and "pass" in out


def test_verify_includes_degenerate_p1(capsys):
    code, out, _ = run(capsys, "verify", "--p", "1")
    assert code == 0


def test_verify_p16_passes_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--p", "16")
    assert code == 0
    assert suite_lines(out) == {
        "graded-jacobi": (512, "pass"),
        "rep-homomorphism": (256, "pass"),
        "gram-adjointness": (2, "pass"),
        "lambda-chi-orthogonality": (1, "pass"),
        "so4-identification": (8, "pass"),
        "so4-casimir-scalar": (3, "pass"),
    }
    assert "casimir values p=16: C1=129/2 C2=63" in out


def test_malformed_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "nonsense"])
    assert exc.value.code == 2


def test_p_above_cap_is_refused_before_any_work(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("verify ran past argument parsing")

    monkeypatch.setattr(cli, "_suite_results", no_work)
    monkeypatch.setattr(cli, "cmd_verify", no_work)
    for p_range in ("1..10000", str(cli.MAX_P + 1), f"{cli.MAX_P}..{cli.MAX_P + 1}"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", p_range])
        assert exc.value.code == 2
        assert f"p is at most {cli.MAX_P}" in capsys.readouterr().err
    assert cli._parse_p_range(f"1..{cli.MAX_P}")[-1] == cli.MAX_P == 64


def test_bad_realization_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check-realization", "--which", "9"])
    assert exc.value.code == 2


def test_check_realization(capsys):
    for which in ("1", "2", "3"):
        code, out, _ = run(capsys, "check-realization", "--which", which, "--p", "1..4")
        assert code == 0
        assert "32/32" in out


def test_check_realization_show_builds_each_operator_once(monkeypatch, capsys):
    original, calls = diffop.realization, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(diffop, "realization", counting)
    monkeypatch.setattr(cli, "realization", counting)
    code, out, _ = run(capsys, "check-realization", "--which", "2", "--p", "3", "--show")
    assert code == 0 and "8/8" in out
    assert len(calls) == 8


def test_spectrum_moszkowski_example(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "moszkowski", "--p", "2", "--c", "0", "--V", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form_match"] is True
    values = sorted(round(e["float"], 9) for e in payload["eigenvalues"])
    assert values == [0, 2, 2, 4]


def test_spectrum_jc_example(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "jc", "--p", "1", "--omega", "1", "--g", "1/10"
    )
    assert code == 0
    payload = json.loads(out)
    values = sorted(round(e["float"], 9) for e in payload["eigenvalues"])
    assert values == [0, 1.1]
    assert payload["closed_form_match"] is True


def test_spectrum_sphaleron_51(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "sphaleron", "--case", "51", "--p", "1", "--k2", "1/4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["convention"] == "lambda = -eig(Delta)"
    values = sorted(round(e["float"], 9) for e in payload["eigenvalues"])
    assert values == [-1, 1]


def test_spectrum_moszkowski_degenerate_coupling(capsys):
    # V = 0 decouples the pairs; labels must still attach and match
    code, out, _ = run(
        capsys, "spectrum", "--model", "moszkowski", "--p", "2", "--c", "3/5", "--V", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form_match"] is True
    values = sorted(round(e["float"], 9) for e in payload["eigenvalues"])
    assert values == [-0.6, 0, 0, 0.6]


def test_spectrum_sphaleron_needs_case(capsys):
    # a missing --case is a usage error, like another model's option
    code, out, err = run(capsys, "spectrum", "--model", "sphaleron", "--p", "2", "--k2", "1/4")
    assert (code, out) == (2, "")
    assert err == "error: --model sphaleron needs --case {43,44,50,51}\n"


def test_constraint_violation_exit_code(capsys):
    code, _, err = run(
        capsys,
        "spectrum", "--model", "jc", "--p", "3",
        "--omega", "1", "--omega0", "1", "--g", "1/10",
    )
    assert code == 3
    assert "detuning" in err


def test_float_input_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "moszkowski", "--p", "2", "--c", "0.5", "--V", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, code, params",
    [
        (["--model", "moszkowski", "--c", "-1/2", "--V", "1"], 0, {"c": "-1/2", "V": "1"}),
        (["--model", "moszkowski", "--c", "1", "--V", "-3/4"], 0, {"c": "1", "V": "-3/4"}),
        (["--model", "sphaleron", "--case", "43", "--k2", "-1/2"], 3, None),
    ],
)
def test_negative_rational_after_a_space(capsys, argv, code, params):
    got, out, err = run(capsys, "spectrum", "--p", "1", *argv)
    assert got == code, err
    if params is None:
        assert "k2 must be nonnegative" in err
    else:
        assert json.loads(out)["params"] == params


def test_zero_denominator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "jc", "--p", "1", "--omega", "1", "--g", "1/0"])
    assert exc.value.code == 2
    assert "zero denominator" in capsys.readouterr().err


def test_rep_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--p", "2", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    for argv in (
        ["rep", "--p", "1"],
        ["spectrum", "--model", "jc", "--p", "1", "--omega", "1", "--g", "1"],
    ):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert "cannot write" in err and str(target) in err
    assert not target.parent.exists()


def test_closed_stdout_is_output_error():
    """A reader that stops early (``| head``) gets exit 2 and one error line, no traceback."""
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "q2rep.cli", "rep", "--basis", "mu", "--p", "1..30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(50)  # the export is megabytes, far beyond the pipe buffer
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.startswith("error: cannot write output:") and err.count("\n") == 1


def test_rep_export_shape(capsys):
    code, out, _ = run(
        capsys, "rep", "--p", "2", "--basis", "lambda_chi", "--generator", "b+"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generator"] == "e10_0"
    assert len(payload["entries"]) == 4
    assert payload["entries"][1][0] == {"rat": "2", "irr": "0"}  # b+ Lam_0 = 2 Lam_1 at p=2


@given(st.sampled_from([2, 3, 5]), st.data())
def test_json_matrix_writes_the_bytes_of_json(p, data):
    """_json_matrix equals _json of the dense json_obj() view, byte for byte."""
    small = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    entry = st.one_of(
        st.just(ExtScalar.zero(p)),
        st.builds(lambda a: ExtScalar(a, 0, p), small),  # negative and fractional
        st.builds(lambda b: ExtScalar(0, b, p), small),  # pure sqrt(p)
        st.builds(lambda a, b: ExtScalar(a, b, p), small, small),
    )
    n = data.draw(st.integers(1, 4))
    row = st.one_of(st.just([ExtScalar.zero(p)] * n), st.lists(entry, min_size=n, max_size=n))
    m = linalg.freeze(data.draw(st.lists(row, max_size=4)))
    assert cli._json_matrix(m) == cli._json([[x.json_obj() for x in r] for r in m])


def test_sweep_lists_payloads(capsys):
    code, out, _ = run(
        capsys, "sweep", "--model", "moszkowski", "--p", "1..3", "--c", "1", "--V", "1/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert [pl["p"] for pl in payload] == [1, 2, 3]


def test_output_is_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "spectrum", "--model", "moszkowski", "--p", "3",
            "--c", "2/3", "--V", "1/7", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--model", "jc", "--p", "2", "--omega", "1", "--g", "1/3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "model,p,params,block,label,exact,float"
    assert len(lines) == 1 + 4


def test_unknown_generator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--p", "2", "--generator", "foo"])
    assert exc.value.code == 2
    assert "--generator: invalid choice: 'foo'" in capsys.readouterr().err
    for name in ("e00_0", "e11_1", "b+", "f-"):
        code, out, _ = run(capsys, "rep", "--p", "1", "--generator", name)
        assert code == 0 and json.loads(out)["p"] == 1


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["--model", "moszkowski", "--case", "43"], "--case"),
        (["--model", "sphaleron", "--case", "43", "--c", "5"], "--c"),
        (["--model", "jc", "--k2", "3"], "--k2"),
        (["--model", "jc", "--omega", "1", "--V", "0"], "--V"),
        (["--model", "moszkowski", "--omega0", "1"], "--omega0"),
        (["--model", "sphaleron", "--case", "51", "--omega", "1"], "--omega"),
        (["--model", "moszkowski", "--g", "0"], "--g"),
    ],
)
def test_foreign_model_option_is_usage_error(capsys, argv, foreign):
    code, out, err = run(capsys, "spectrum", "--p", "1", *argv)
    assert code == 2
    assert out == ""
    assert foreign in err and argv[1] in err


def test_unset_model_options_print_as_zero(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "sphaleron", "--case", "43", "--p", "1")
    assert code == 0
    assert json.loads(out)["params"] == {"k2": "0"}
    code, out, _ = run(capsys, "spectrum", "--model", "moszkowski", "--p", "1", "--V", "1")
    assert code == 0
    assert json.loads(out)["params"] == {"V": "1", "c": "0"}


@pytest.mark.parametrize(
    "model, params",
    [
        (Model.MOSZKOWSKI, {"c": Fraction(2, 3), "V": Fraction(1, 7)}),
        (Model.MOSZKOWSKI, {"c": Fraction(3, 5), "V": 0}),
        (Model.JAYNES_CUMMINGS, {"omega": 1, "g": Fraction(1, 10)}),
    ],
)
def test_spectrum_solves_each_closed_form_block_once(monkeypatch, model, params):
    calls = {"tridiagonal": 0, "exact": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    tridiagonal = counted("tridiagonal", spectra.eigenvalues_tridiagonal)
    monkeypatch.setattr(spectra, "eigenvalues_tridiagonal", tridiagonal)
    # cli imports no eigensolver now; a name it imports again would be counted
    monkeypatch.setattr(cli, "eigenvalues_tridiagonal", tridiagonal, raising=False)
    monkeypatch.setattr(
        spectra, "eigenvalues_exact_small", counted("exact", spectra.eigenvalues_exact_small)
    )
    payload = cli.spectrum_payload(ModelSpec(model, 4, params))
    assert payload["closed_form_match"] is True
    # the closed forms carry the floats; trace and determinant certify them exactly
    assert calls == {"tridiagonal": 0, "exact": 0}


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_zero_eigenvalue_prints_without_sign(capsys, fmt):
    # lambda = -eig(Delta) of an exact zero eigenvalue is 0.0, not -0.0
    code, out, _ = run(
        capsys, "spectrum", "--model", "sphaleron", "--case", "43", "--p", "1", "--format", fmt
    )
    assert code == 0
    assert "0.0" in out and "-0.0" not in out


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_closed_form_match_sees_coupling_between_blocks(monkeypatch, capsys, fmt):
    # a symmetric pair of entries linking closed-form blocks 1 and 2 leaves
    # both blocks' trace and determinant as they were, but merges the blocks
    true_matrix = cli.expression_matrix

    def coupled(spec):
        rows = [dict(row.nz) for row in true_matrix(spec)]
        rows[1][2] = rows[2][1] = ExtScalar.one(spec.p)
        return linalg.sparse(2 * spec.p, ExtScalar.zero(spec.p), rows)

    monkeypatch.setattr(cli, "expression_matrix", coupled)
    argv = ["spectrum", "--model", "moszkowski", "--p", "3", "--c", "1", "--V", "1/2"]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 1
    assert "closed forms do not match the Hamiltonian at p=[3]" in err
    if fmt == "json":
        payload = json.loads(out)
        assert payload["blocks"] == [[0], [1, 2, 3, 4], [5]]
        assert payload["closed_form_match"] is False


def test_homomorphism_sweep_builds_each_matrix_once(monkeypatch):
    calls = 0
    true_rep_matrices = cli.rep_matrices

    def counted(gens, basis, p):
        nonlocal calls
        gens = list(gens)
        calls += len(gens)
        return true_rep_matrices(gens, basis, p)

    monkeypatch.setattr(cli, "rep_matrices", counted)
    assert all(fail is None for _, _, fail in cli._suite_results([4], {}))
    # eight generators in each of the four bases, shared by the 64 pairs and
    # by the suites after the homomorphism sweep
    assert calls <= 32


def count_calls(monkeypatch, module, name):
    calls = []
    true_fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return true_fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_homomorphism_sweep_makes_each_product_once(monkeypatch):
    mats = {basis: rep_matrices(GENERATORS, basis, 4) for basis in Basis}
    # the multiply-accumulate loop; matmul is built on it too
    calls = count_calls(monkeypatch, linalg, "product_rows")
    checks = list(cli._homomorphism_checks(4, mats))
    assert len(checks) == 4 * 64 and all(ok for _, ok in checks)
    # one product M_x M_y per ordered pair serves the checks of (x, y) and (y, x)
    assert 0 < len(calls) <= 4 * 64


def _sweeps(monkeypatch, p, mats):
    """The homomorphism sweep on the graded integer rows, then on the ExtScalar rows."""
    graded = list(cli._homomorphism_checks(p, mats))
    with monkeypatch.context() as m:
        m.setattr(cli, "integer_rows", lambda *args: None)
        plain = list(cli._homomorphism_checks(p, mats))
    return graded, plain


@pytest.mark.parametrize("p", [*range(1, 17), 64])
def test_integer_sweep_matches_the_ext_sweep(monkeypatch, p):
    mats = {basis: rep_matrices(GENERATORS, basis, p) for basis in Basis}
    assert all(rep.integer_rows(mats[basis], basis, p) is not None for basis in Basis)
    graded, plain = _sweeps(monkeypatch, p, mats)
    assert len(graded) == 4 * 64 and all(ok for _, ok in graded)
    assert graded == plain


# the generator whose matrix is mutated in each basis, one of each kind
MUTATED = {Basis.VW: F_PLUS, Basis.LAMBDA_CHI: E00_0, Basis.MU: E11_1, Basis.THIRD: B_MINUS}


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("basis", list(Basis))
@pytest.mark.parametrize("rat, irr", [(Fraction(1, 7), 0), (0, Fraction(2, 7)), (1, 1)])
def test_a_mutated_entry_fails_alike_on_both_sweeps(monkeypatch, p, basis, rat, irr):
    """One entry of one generator, changed by a rational, by sqrt(p) or by both.

    A change of the entry's own degree stays graded and fails in the integer
    sweep; any other leaves the grading, so the sweep falls back to ExtScalar.
    """
    mats = {b: rep_matrices(GENERATORS, b, p) for b in Basis}
    g = MUTATED[basis]
    m = mats[basis][g]
    # the first stored entry from row p on: in VW a w_l row, of degree 1
    i = next(i for i in range(p, 2 * p) if m[i].nz)
    j, x = next(iter(m[i].nz.items()))
    rows = [dict(row.nz) for row in m]
    rows[i][j] = x + ExtScalar(rat, irr, p)
    mats[basis] = {**mats[basis], g: linalg.sparse(2 * p, ExtScalar.zero(p), rows)}
    graded, plain = _sweeps(monkeypatch, p, mats)
    assert graded == plain
    assert not all(ok for _, ok in graded)
    assert all(f"basis={basis.value} " in where for where, ok in graded if not ok)
    a, _, _ = x.triple()
    stays_graded = irr == 0 if a else rat == 0
    assert (rep.integer_rows(mats[basis], basis, p) is not None) == stays_graded


def count_constructions(monkeypatch, cls):
    built = [0]
    init = cls.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_homomorphism_sweep_builds_no_matrix(monkeypatch):
    # the checks compare rows as dicts of nonzeros: no Row, so no zero matrix either
    mats = {basis: rep_matrices(GENERATORS, basis, 4) for basis in Basis}
    built = count_constructions(monkeypatch, linalg.Row)
    checks = list(cli._homomorphism_checks(4, mats))
    assert len(checks) == 4 * 64 and all(ok for _, ok in checks)
    assert built[0] == 0
    linalg.identity(2, 1, 0)
    assert built[0] == 2  # the counter is live


# ExtScalar and Radical arithmetic calls together (4,248, none of them
# Radical) and Row constructions (2,608) of `verify --p 8`, plus 5%.  Since
# the homomorphism sweep runs on the integer rows of the sqrt(p) grading, it
# does no ExtScalar arithmetic; the arithmetic bound before was 19,964, on
# 19,014 calls
VERIFY_P8_ARITHMETIC = 4_460
VERIFY_P8_ROWS = 2_738


def test_verify_p8_work_is_bounded(monkeypatch, capsys):
    ops = [0]

    def counted(method):
        def wrapper(*args):
            ops[0] += 1
            return method(*args)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(ExtScalar, name, counted(getattr(ExtScalar, name)))
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(so4.Radical, name, counted(getattr(so4.Radical, name)))
    rows = count_constructions(monkeypatch, linalg.Row)
    assert main(["verify", "--p", "8"]) == 0
    capsys.readouterr()
    assert ops[0] <= VERIFY_P8_ARITHMETIC
    assert rows[0] <= VERIFY_P8_ROWS


def test_verify_reports_an_irrational_so4_entry_as_a_failure(monkeypatch, capsys):
    """A T' entry made irrational (times sqrt(p)) fails the identification; no traceback."""
    scaled_tensor_map = so4._scaled_tensor_map

    def mutated(p):
        rows = [dict(r.nz) for r in scaled_tensor_map(p)]
        rows[1][1] = rows[1][1] * ExtScalar.sqrt_p(p)  # the first entry of row 1
        return linalg.sparse(2 * p, ExtScalar.zero(p), rows)

    monkeypatch.setattr(so4, "_scaled_tensor_map", mutated)
    code, out, err = run(capsys, "verify", "--p", "3")
    assert code == 1
    suites = suite_lines(out)
    assert suites["so4-identification"] == (8, "FAIL (p=3: b- = J+ + K+ at (0, 1))")
    assert suites["so4-casimir-scalar"] == (3, "pass")
    assert "Traceback" not in err


def test_verify_counts_a_non_scalar_casimir_as_three_failures(monkeypatch, capsys):
    """A K0 that makes C1 and C2 non-scalar fails the Casimir suite's 3 checks; no traceback."""
    so4_matrices = so4.so4_matrices

    def mutated(p):
        mats = so4_matrices(p)
        rows = [dict(r.nz) for r in mats[so4.K0]]
        rows[0][0] = rows[0][0] * 2
        return {**mats, so4.K0: linalg.sparse(2 * p, rows[0][0] - rows[0][0], rows)}

    monkeypatch.setattr(so4, "so4_matrices", mutated)
    code, out, err = run(capsys, "verify", "--p", "3")
    assert code == 1
    suites = suite_lines(out)
    assert suites["so4-casimir-scalar"] == (3, "FAIL (p=3: Casimir C1 is not scalar for p=3)")
    assert suites["so4-identification"] == (8, "FAIL (p=3: e00_0 - e11_0 = 2J0 + 2K0 at (0, 0))")
    assert "casimir values p=3" not in out
    assert "Traceback" not in err


def test_verify_builds_each_p_matrices_once(monkeypatch, capsys):
    so4_calls = count_calls(monkeypatch, so4, "so4_matrices")
    vw_calls = count_calls(monkeypatch, rep, "_vw_change")
    mu_calls = count_calls(monkeypatch, rep, "_mu_change")
    assert main(["verify", "--p", "1..3"]) == 0
    capsys.readouterr()
    assert len(so4_calls) <= 3
    assert sorted(vw_calls) == sorted(mu_calls) == [(1,), (2,), (3,)]


def test_commands_leave_no_matrix_rows_alive(capsys):
    def live_rows():
        gc.collect()
        return sum(type(obj) is linalg.Row for obj in gc.get_objects())

    before = live_rows()
    assert main(["rep", "--basis", "mu", "--p", "1..8"]) == 0
    assert main(["verify", "--p", "1..3"]) == 0
    assert main(["spectrum", "--model", "moszkowski", "--p", "8", "--c", "1", "--V", "1/2"]) == 0
    capsys.readouterr()
    assert live_rows() == before
