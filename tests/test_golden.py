"""Golden CLI outputs: the stdout of fixed invocations, recorded in tests/data/.

Each file under tests/data/ is the stdout of ``q2rep <argv>`` for the argv
listed here, compared byte for byte.  The ``rep`` export prints every
entry of the dense view, zeros included.  Each spectrum float is the double
nearest an exact value, so it is pinned too.
Rewrite a file only for an output change that is intended, by saving the stdout of
its command.  Two ``verify`` files hold the output of a run with one fault
injected, so that each suite's first-failure text stays pinned.
"""

import hashlib
import json
from pathlib import Path

import pytest

from q2rep import algebra, cli, linalg
from q2rep.algebra import B_PLUS, F_MINUS, F_PLUS
from q2rep.cli import main
from q2rep.rep import Basis
from q2rep.scalars import ExtScalar

DATA = Path(__file__).parent / "data"

SPECTRUM_MODELS = {
    "moszkowski": ["--model", "moszkowski", "--c", "2/3", "--V", "1/7"],
    "jc": ["--model", "jc", "--omega", "1", "--g", "1/10"],
    "sphaleron51": ["--model", "sphaleron", "--case", "51", "--k2", "1/4"],
    # V = 0: the sparsity blocks are finer than the closed-form blocks
    "moszkowski-V0": ["--model", "moszkowski", "--c", "3/5", "--V", "0"],
}
SPECTRUM_CASES = {
    f"spectrum_{name}_p1-3.{ext}": ["spectrum", *argv, "--p", "1..3", "--format", fmt]
    for name, argv in SPECTRUM_MODELS.items()
    for fmt, ext in (("json", "json"), ("csv", "csv"), ("pretty", "txt"))
}


def stdout_of(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_verify_output_is_golden(capsys):
    got = stdout_of(capsys, ["verify", "--p", "1..3"])
    assert got == (DATA / "verify_p1-3.txt").read_text()


def test_verify_failure_with_a_flipped_structure_sign_is_golden(monkeypatch, capsys):
    terms = algebra._STRUCTURE[B_PLUS, F_MINUS]
    monkeypatch.setitem(algebra._STRUCTURE, (B_PLUS, F_MINUS), tuple((g, -k) for g, k in terms))
    assert main(["verify", "--p", "1..3"]) == 1
    got = capsys.readouterr().out
    assert got == (DATA / "verify_p1-3_structure_sign_flipped.txt").read_text()


def test_verify_failure_with_a_perturbed_vw_entry_is_golden(monkeypatch, capsys):
    # integer entry (1, 0) of the graded form of f+ in VW at p = 2, one more
    # than it should be; every suite reads the graded form or its view
    true_graded_matrices = cli.graded_matrices

    def perturbed(gens, basis, p):
        den, rows = true_graded_matrices(gens, basis, p)
        if basis is Basis.VW and p == 2:
            f_plus = [dict(row) for row in rows[F_PLUS]]
            f_plus[1][0] = f_plus[1].get(0, 0) + 1
            rows = {**rows, F_PLUS: f_plus}
        return den, rows

    monkeypatch.setattr(cli, "graded_matrices", perturbed)
    assert main(["verify", "--p", "1..3"]) == 1
    got = capsys.readouterr().out
    assert got == (DATA / "verify_p1-3_vw_entry_perturbed.txt").read_text()


@pytest.mark.parametrize("basis", ["vw", "lambda_chi", "mu", "third"])
def test_rep_export_is_golden(capsys, basis):
    got = stdout_of(capsys, ["rep", "--p", "3", "--basis", basis])
    assert got == (DATA / f"rep_{basis}_p3.json").read_text()


# the two forms the benchmark digests do not pin: one object (--generator) and
# the list over several p
REP_CASES = {
    "rep_lambda_chi_p3_b+.json": ["--p", "3", "--basis", "lambda_chi", "--generator", "b+"],
    "rep_vw_p4_f-.json": ["--p", "4", "--basis", "vw", "--generator", "f-"],
    "rep_mu_p1-3.json": ["--p", "1..3", "--basis", "mu"],
}


@pytest.mark.parametrize("fname", sorted(REP_CASES))
def test_rep_export_forms_are_golden(capsys, fname):
    got = stdout_of(capsys, ["rep", *REP_CASES[fname]])
    assert got == (DATA / fname).read_text()


# sha256 of the stdout of "rep --basis B --p P" at the benchmark's sizes
REP_DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "rep_digests.json").read_text())


@pytest.mark.parametrize("p", [8, 16, 32])
@pytest.mark.parametrize("basis", ["vw", "lambda_chi", "mu", "third"])
def test_rep_export_matches_benchmark_digest(capsys, basis, p):
    got = stdout_of(capsys, ["rep", "--p", str(p), "--basis", basis])
    assert hashlib.sha256(got.encode()).hexdigest() == REP_DIGESTS[f"{basis}/p{p}"]


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_check_realization_show_is_golden(capsys, which):
    got = stdout_of(capsys, ["check-realization", "--which", which, "--p", "1..2", "--show"])
    assert got == (DATA / f"check-realization_{which}_p1-2_show.txt").read_text()


@pytest.mark.parametrize("fname", sorted(SPECTRUM_CASES))
def test_spectrum_output_is_golden(capsys, fname):
    got = stdout_of(capsys, SPECTRUM_CASES[fname])
    assert got == (DATA / fname).read_text()
