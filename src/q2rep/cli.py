"""Command-line interface: verification suites, matrix export, spectra, sweeps.

Exit codes: 0 success, 1 identity failure, 2 usage error (including an
--out path that cannot be written), 3 constraint violation.  All numeric
inputs are exact rationals ("a/b" or integers); floats appear only in
output.  Output is deterministic: identical configs produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import linalg, so4
from .algebra import ALIASES, GENERATORS, SuperElement, bracket, generator_by_name, graded_jacobi_sum
from .diffop import realization, realization_basis_id, realization_matrix
from .models import (
    Model,
    ModelSpec,
    ConstraintError,
    NoClosedFormError,
    SPHALERON_MODELS,
    closed_form_blocks,
    closed_form_spectrum,
    expression_matrix,
    model_basis,
    raw_matrix,
)
from .rep import Basis, gram_matrix, rep_matrix, rep_of_element
from .scalars import ExtScalar, parse_rational
from .spectra import decompose, eigenvalues_numeric, spectrum_of_matrix, values_close


# Largest p any subcommand accepts: the matrices are 2p x 2p and exact, so
# a larger --p would run for hours.
MAX_P = 64


def _parse_p_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo_i, hi_i = int(lo), int(hi)
        else:
            lo_i = hi_i = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad p range {text!r}: use N or A..B") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"bad p range {text!r}")
    if hi_i > MAX_P:
        raise argparse.ArgumentTypeError(f"bad p range {text!r}: p is at most {MAX_P}")
    return list(range(lo_i, hi_i + 1))


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# verify ----------------------------------------------------------------------
# Each suite yields (where, ok) for every exact check it makes; `where` names
# the check in the report when it is the suite's first failure.

def _jacobi_checks():
    for triple in itertools.product(GENERATORS, repeat=3):
        yield f"triple {triple}", not graded_jacobi_sum(*triple)


def _homomorphism_checks(p_values):
    for p in p_values:
        for basis in Basis:
            for gx, gy in itertools.product(GENERATORS, repeat=2):
                mx = rep_matrix(gx, basis, p)
                my = rep_matrix(gy, basis, p)
                sign = ExtScalar.of(-1 if (gx.parity and gy.parity) else 1, p)
                lhs = linalg.sub(
                    linalg.matmul(mx, my), linalg.scale(sign, linalg.matmul(my, mx))
                )
                rhs = rep_of_element(
                    bracket(SuperElement.basis(gx, p), SuperElement.basis(gy, p)), basis, p
                )
                yield f"p={p} basis={basis.value} pair=({gx.name},{gy.name})", linalg.equal(lhs, rhs)


def _gram_checks(p_values):
    for p in p_values:
        g = gram_matrix(Basis.VW, p)
        for plus, minus in (("b+", "b-"), ("f+", "f-")):
            lhs = linalg.matmul(g, rep_matrix(generator_by_name(plus), Basis.VW, p))
            rhs = linalg.matmul(
                linalg.transpose(rep_matrix(generator_by_name(minus), Basis.VW, p)), g
            )
            yield f"p={p} pair={plus}/{minus}", linalg.equal(lhs, rhs)


def _orthogonality_checks(p_values):
    for p in p_values:
        g = gram_matrix(Basis.LAMBDA_CHI, p)
        n2 = 2 * p
        off = next(((i, j) for i in range(n2) for j in range(n2) if i != j and g[i][j]), None)
        yield f"p={p} entry {off}", off is None


def _identification_checks(p_values):
    for p in p_values:
        for line in so4.identification_lines(p):
            yield f"p={p}: {line.label} at {line.first_difference}", line.passed


def _casimir_checks(p_values, casimirs):
    for p in p_values:
        try:
            c1 = so4.casimir(1, p)[1]
            c2 = so4.casimir(2, p)[1]
        except ValueError as exc:
            yield f"p={p}: {exc}", False
            continue
        casimirs[p] = (c1, c2)
        # casimir() returns only when C1 and C2 are scalar: two checks passed
        yield f"p={p}: C1", True
        yield f"p={p}: C2", True
        # C1 - C2 = 2 K0^2 + {K+, K-} = 3/2, i.e. (3/2p) times e00_0+e11_0
        yield (f"p={p}: C1 - C2 is not the expected multiple of e00_0+e11_0",
               c1 - c2 == Fraction(3, 2))


def _suite_results(
    p_values: list[int], casimirs: dict[int, tuple[Fraction, Fraction]]
) -> list[tuple[str, int, str | None]]:
    """Each entry: (suite name, number of exact checks, first failure or None).

    The scalar Casimir values (C1, C2) of each p are stored in `casimirs`.
    """
    suites = (
        ("graded-jacobi", _jacobi_checks()),
        ("rep-homomorphism", _homomorphism_checks(p_values)),
        ("gram-adjointness", _gram_checks(p_values)),
        ("lambda-chi-orthogonality", _orthogonality_checks(p_values)),
        ("so4-identification", _identification_checks(p_values)),
        ("so4-casimir-scalar", _casimir_checks(p_values, casimirs)),
    )
    results = []
    for name, checks in suites:
        count, fail = 0, None
        for where, ok in checks:
            count += 1
            if fail is None and not ok:
                fail = where
        results.append((name, count, fail))
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    casimirs: dict[int, tuple[Fraction, Fraction]] = {}
    results = _suite_results(args.p, casimirs)
    for name, count, fail in results:
        status = "pass" if fail is None else f"FAIL ({fail})"
        print(f"{name:28s} {count:6d} checks  {status}")
    for p, (c1, c2) in casimirs.items():
        print(f"casimir values p={p}: C1={c1} C2={c2}")
    return 1 if any(fail is not None for _, _, fail in results) else 0


# rep -------------------------------------------------------------------------

def cmd_rep(args: argparse.Namespace) -> int:
    basis = Basis(args.basis)
    gens = [generator_by_name(args.generator)] if args.generator else list(GENERATORS)
    payload = []
    for p in args.p:
        for g in gens:
            m = rep_matrix(g, basis, p)
            payload.append(
                {
                    "p": p,
                    "basis": args.basis,
                    "generator": g.name,
                    "entries": [[x.json_obj() for x in row] for row in m],
                }
            )
    obj = payload[0] if len(payload) == 1 else payload
    return _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


# spectrum ---------------------------------------------------------------------

# the model options each --model takes; an unset one is 0 (omega0: derived)
MODEL_OPTIONS = {
    "sphaleron": ("case", "k2"),
    "moszkowski": ("c", "V"),
    "jc": ("omega", "omega0", "g"),
}


def _model_from_args(args: argparse.Namespace, p: int) -> ModelSpec:
    if args.model == "sphaleron":
        if args.case is None:
            raise ConstraintError("sphaleron model needs --case {43,44,50,51}")
        return ModelSpec(Model(f"sphaleron{args.case}"), p, {"k2": args.k2 or 0})
    if args.model == "moszkowski":
        return ModelSpec(Model.MOSZKOWSKI, p, {"c": args.c or 0, "V": args.V or 0})
    params = {"omega": args.omega or 0, "g": args.g or 0}
    if args.omega0 is not None:
        params["omega0"] = args.omega0
    return ModelSpec(Model.JAYNES_CUMMINGS, p, params)


def spectrum_payload(spec: ModelSpec) -> dict:
    """Exact matrix, block decomposition and eigenvalues as a JSON-ready dict."""
    sphaleron = spec.model in SPHALERON_MODELS
    matrix = raw_matrix(spec) if sphaleron else expression_matrix(spec)
    eigenvalues = []
    closed_match: bool | None = None
    if not sphaleron:
        blocks = decompose(matrix).blocks
        closed = closed_form_spectrum(spec)
        closed_match = True
        # labels attach through the closed-form pairing, which is always a
        # valid block structure (the sparsity components can be finer, e.g.
        # Moszkowski at V = 0)
        for k, indices in sorted(closed_form_blocks(spec).items()):
            sub = tuple(tuple(matrix[i][j] for j in indices) for i in indices)
            claimed = sorted(
                (e for e in closed if e.block == k), key=lambda e: e.value()
            )
            if not _trace_det_ok(sub, claimed):
                closed_match = False
            computed = sorted(eigenvalues_numeric(sub), key=lambda z: z.real)
            for ce, z in zip(claimed, computed):
                if abs(z.imag) > 1e-9 or not values_close(ce.value(), z.real):
                    closed_match = False
                eigenvalues.append(
                    {
                        "exact": ce.exact_text(),
                        "float": z.real,
                        "block": indices[0],
                        "label": ce.label,
                    }
                )
    else:
        solved = spectrum_of_matrix(matrix)
        blocks = [bs.block for bs in solved]
        for bs in solved:
            if bs.exact is not None:
                # mode eigenvalues lam solve (Delta + lam) f = 0
                for e in sorted(bs.exact, key=lambda e: -e.value()):
                    eigenvalues.append(
                        {
                            "exact": (-e).exact_text(),
                            "float": (-e).value(),
                            "block": bs.block[0],
                            "label": None,
                        }
                    )
            else:
                for z in sorted(bs.numeric, key=lambda z: (-z.real, -z.imag)):
                    eigenvalues.append(
                        {"exact": None, "float": 0.0 - z.real, "block": bs.block[0], "label": None}
                    )
    payload = {
        "model": spec.model.value,
        "p": spec.p,
        "params": {k: str(v) for k, v in sorted(spec.params.items())},
        "basis": model_basis(spec.model).value,
        "blocks": [list(block) for block in blocks],
        "eigenvalues": eigenvalues,
    }
    if sphaleron:
        payload["convention"] = "lambda = -eig(Delta)"
        if SPHALERON_MODELS[spec.model] in (44, 50):
            payload["note"] = "raw operator reconstructed from the coupled mode system"
    else:
        payload["closed_form_match"] = closed_match
    return payload


def _trace_det_ok(sub, eigs: list) -> bool:
    """The trace/det identities of one closed-form block against its closed forms, exact."""
    if len(sub) == 1:
        return len(eigs) == 1 and eigs[0].sign == 0 and sub[0][0] == eigs[0].base
    plus, minus = eigs if eigs[0].sign >= eigs[1].sign else (eigs[1], eigs[0])
    tr = sub[0][0] + sub[1][1]
    det = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    # E+ + E- = 2 base, E+ E- = base^2 - radicand: rational identities
    return tr == plus.base + minus.base and det == plus.base * minus.base - plus.radicand


def cmd_spectrum(args: argparse.Namespace) -> int:
    foreign = [
        f"--{name}"
        for model, names in MODEL_OPTIONS.items() if model != args.model
        for name in names if getattr(args, name) is not None
    ]
    if foreign:
        print(f"error: --model {args.model} does not take {' '.join(foreign)}", file=sys.stderr)
        return 2
    payloads = [spectrum_payload(_model_from_args(args, p)) for p in args.p]
    return _emit(args, _format_payloads(args.format, payloads))


def _format_payloads(fmt: str, payloads: list[dict]) -> str:
    if fmt == "json":
        obj = payloads[0] if len(payloads) == 1 else payloads
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        lines = ["model,p,params,block,label,exact,float"]
        for pl in payloads:
            params = ";".join(f"{k}={v}" for k, v in pl["params"].items())
            for e in pl["eigenvalues"]:
                lines.append(
                    ",".join(
                        [
                            pl["model"],
                            str(pl["p"]),
                            params,
                            str(e["block"]),
                            e["label"] or "",
                            (e["exact"] or "").replace(",", ";"),
                            repr(e["float"]),
                        ]
                    )
                )
        return "\n".join(lines) + "\n"
    out = []
    for pl in payloads:
        out.append(f"model={pl['model']} p={pl['p']} params={pl['params']}")
        if "convention" in pl:
            out.append(f"  convention: {pl['convention']}")
        if "closed_form_match" in pl:
            out.append(f"  closed-form match: {pl['closed_form_match']}")
        out.append(f"  blocks: {pl['blocks']}")
        for e in pl["eigenvalues"]:
            label = e["label"] or "-"
            exact = e["exact"] or "-"
            out.append(f"  {label:6s} block {e['block']:2d}  {exact:28s} {e['float']!r}")
    return "\n".join(out) + "\n"


def _emit(args: argparse.Namespace, text: str) -> int:
    """Write text to --out or stdout; exit code 2 when --out cannot be written."""
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return 0


# check-realization -------------------------------------------------------------

def cmd_check_realization(args: argparse.Namespace) -> int:
    failures = 0
    for p in args.p:
        basis = realization_basis_id(args.which)
        for g in GENERATORS:
            if args.show:
                print(f"p={p} {g.name}: {realization(args.which, g, p).text()}")
            got = realization_matrix(args.which, g, p)
            want = rep_matrix(g, basis, p)
            if not linalg.equal(got, want):
                i, j = linalg.first_difference(got, want)
                print(
                    f"mismatch: realization {args.which} p={p} generator {g.name} "
                    f"entry ({i},{j}): {got[i][j]} vs {want[i][j]}"
                )
                failures += 1
    total = len(args.p) * len(GENERATORS)
    print(f"check-realization {args.which}: {total - failures}/{total} matrices match")
    return 1 if failures else 0


# parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="q2rep",
        description="Exact verification and spectra for q(2) representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p_and_out(sp: argparse.ArgumentParser, default_p: str) -> None:
        sp.add_argument("--p", type=_parse_p_range, default=_parse_p_range(default_p),
                        help="p value or range A..B")
        sp.add_argument("--out", help="output path (default stdout)")

    sp_verify = sub.add_parser("verify", help="run the exact identity suites")
    sp_verify.add_argument("--p", type=_parse_p_range, default=_parse_p_range("1..6"))
    sp_verify.set_defaults(func=cmd_verify)

    sp_rep = sub.add_parser("rep", help="export representation matrices as JSON")
    add_p_and_out(sp_rep, "3")
    sp_rep.add_argument("--basis", choices=sorted(b.value for b in Basis), default="lambda_chi")
    sp_rep.add_argument("--generator", choices=[g.name for g in GENERATORS] + list(ALIASES),
                        metavar="NAME", help="e.g. e00_0 or b+ (default: all eight)")
    sp_rep.set_defaults(func=cmd_rep)

    sp_s = sub.add_parser("spectrum", aliases=["sweep"],
                          help="spectrum of a model Hamiltonian")
    add_p_and_out(sp_s, "2")
    sp_s.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    sp_s.add_argument("--model", choices=("sphaleron", "moszkowski", "jc"), required=True)
    sp_s.add_argument("--case", type=int, choices=(43, 44, 50, 51))
    for name in ("--c", "--V", "--omega", "--g", "--k2", "--omega0"):
        sp_s.add_argument(name, type=_rational)
    sp_s.set_defaults(func=cmd_spectrum)

    sp_chk = sub.add_parser("check-realization", help="compare realizations to the abstract matrices")
    sp_chk.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    sp_chk.add_argument("--p", type=_parse_p_range, default=_parse_p_range("1..8"))
    sp_chk.add_argument("--show", action="store_true",
                        help="print the textual form of each realized operator")
    sp_chk.set_defaults(func=cmd_check_realization)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3
    except NoClosedFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
