import json
from fractions import Fraction

import pytest

from q2rep import cli, spectra
from q2rep.models import Model, ModelSpec
from q2rep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--p", "1..2")
    assert code == 0
    assert "graded-jacobi" in out and "pass" in out


def test_verify_includes_degenerate_p1(capsys):
    code, out, _ = run(capsys, "verify", "--p", "1")
    assert code == 0


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
    code, _, err = run(capsys, "spectrum", "--model", "sphaleron", "--p", "2")
    assert code == 3
    assert "case" in err


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


def test_rep_export_shape(capsys):
    code, out, _ = run(
        capsys, "rep", "--p", "2", "--basis", "lambda_chi", "--generator", "b+"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generator"] == "e10_0"
    assert len(payload["entries"]) == 4
    assert payload["entries"][1][0] == {"rat": "2", "irr": "0"}  # b+ Lam_0 = 2 Lam_1 at p=2


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
    calls = {"numeric": 0, "exact": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    numeric = counted("numeric", spectra.eigenvalues_numeric)
    monkeypatch.setattr(spectra, "eigenvalues_numeric", numeric)
    monkeypatch.setattr(cli, "eigenvalues_numeric", numeric)
    monkeypatch.setattr(
        spectra, "eigenvalues_exact_small", counted("exact", spectra.eigenvalues_exact_small)
    )
    payload = cli.spectrum_payload(ModelSpec(model, 4, params))
    assert payload["closed_form_match"] is True
    # p + 1 closed-form blocks: two 1x1 and p - 1 pairs
    assert calls == {"numeric": 5, "exact": 0}


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_zero_eigenvalue_prints_without_sign(capsys, fmt):
    # lambda = -eig(Delta) of an exact zero eigenvalue is 0.0, not -0.0
    code, out, _ = run(
        capsys, "spectrum", "--model", "sphaleron", "--case", "43", "--p", "1", "--format", fmt
    )
    assert code == 0
    assert "0.0" in out and "-0.0" not in out
