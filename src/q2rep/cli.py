"""Command-line interface: verification suites, matrix export, spectra, sweeps.

Exit codes: 0 success, 1 identity failure, 2 usage error, 3 constraint
violation.  All numeric inputs are exact rationals ("a/b" or integers);
floats appear only in output.  Output is deterministic: identical configs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import linalg, so4
from .algebra import GENERATORS, SuperElement, bracket, check_graded_jacobi, generator_by_name
from .diffop import realization_basis_id, realization_matrix
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
from .spectra import spectrum_of_matrix, values_close


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


_BASIS_NAMES = {
    "vw": Basis.VW,
    "lambda_chi": Basis.LAMBDA_CHI,
    "mu": Basis.MU,
    "third": Basis.THIRD,
}


# verify ----------------------------------------------------------------------

def _suite_results(p_values: list[int]) -> list[tuple[str, int, str | None]]:
    """Each entry: (suite name, number of exact checks, first failure or None)."""
    results: list[tuple[str, int, str | None]] = []

    ok, n, viol = check_graded_jacobi()
    results.append(("graded-jacobi", n, None if ok else f"triple {viol}"))

    count, fail = 0, None
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
                count += 1
                if fail is None and not linalg.equal(lhs, rhs):
                    fail = f"p={p} basis={basis.value} pair=({gx.name},{gy.name})"
    results.append(("rep-homomorphism", count, fail))

    count, fail = 0, None
    for p in p_values:
        g = gram_matrix(Basis.VW, p)
        for plus, minus in (("b+", "b-"), ("f+", "f-")):
            lhs = linalg.matmul(g, rep_matrix(generator_by_name(plus), Basis.VW, p))
            rhs = linalg.matmul(
                linalg.transpose(rep_matrix(generator_by_name(minus), Basis.VW, p)), g
            )
            count += 1
            if fail is None and not linalg.equal(lhs, rhs):
                fail = f"p={p} pair={plus}/{minus}"
    results.append(("gram-adjointness", count, fail))

    count, fail = 0, None
    for p in p_values:
        g = gram_matrix(Basis.LAMBDA_CHI, p)
        n2 = 2 * p
        count += 1
        off = [(i, j) for i in range(n2) for j in range(n2) if i != j and g[i][j]]
        if fail is None and off:
            fail = f"p={p} entry {off[0]}"
    results.append(("lambda-chi-orthogonality", count, fail))

    count, fail = 0, None
    for p in p_values:
        for line in so4.identification_lines(p):
            count += 1
            if fail is None and not line.passed:
                fail = f"p={p}: {line.label} at {line.first_difference}"
    results.append(("so4-identification", count, fail))

    count, fail = 0, None
    for p in p_values:
        try:
            c1 = so4.casimir(1, p)[1]
            c2 = so4.casimir(2, p)[1]
            count += 3
            # C1 - C2 = 2 K0^2 + {K+, K-} = 3/2, i.e. (3/2p) times e00_0+e11_0
            if fail is None and c1 - c2 != Fraction(3, 2):
                fail = f"p={p}: C1 - C2 is not the expected multiple of e00_0+e11_0"
        except ValueError as exc:
            if fail is None:
                fail = f"p={p}: {exc}"
    results.append(("so4-casimir-scalar", count, fail))
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    results = _suite_results(args.p)
    failed = False
    for name, count, fail in results:
        status = "pass" if fail is None else f"FAIL ({fail})"
        print(f"{name:28s} {count:6d} checks  {status}")
        failed = failed or fail is not None
    for p in args.p:
        c1 = so4.casimir(1, p)[1]
        c2 = so4.casimir(2, p)[1]
        print(f"casimir values p={p}: C1={c1} C2={c2}")
    return 1 if failed else 0


# rep -------------------------------------------------------------------------

def cmd_rep(args: argparse.Namespace) -> int:
    basis = _BASIS_NAMES[args.basis]
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
    _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


# spectrum ---------------------------------------------------------------------

def _model_from_args(args: argparse.Namespace, p: int) -> ModelSpec:
    name = args.model
    if name == "sphaleron":
        if args.case is None:
            raise ConstraintError("sphaleron model needs --case {43,44,50,51}")
        model = {43: Model.SPHALERON_43, 44: Model.SPHALERON_44,
                 50: Model.SPHALERON_50, 51: Model.SPHALERON_51}[args.case]
        return ModelSpec(model, p, {"k2": args.k2 if args.k2 is not None else Fraction(0)})
    if name == "moszkowski":
        return ModelSpec(
            Model.MOSZKOWSKI,
            p,
            {"c": args.c if args.c is not None else Fraction(0),
             "V": args.V if args.V is not None else Fraction(0)},
        )
    params = {"omega": args.omega if args.omega is not None else Fraction(0),
              "g": args.g if args.g is not None else Fraction(0)}
    if args.omega0 is not None:
        params["omega0"] = args.omega0
    return ModelSpec(Model.JAYNES_CUMMINGS, p, params)


def spectrum_payload(spec: ModelSpec) -> dict:
    """Exact matrix, block decomposition and eigenvalues as a JSON-ready dict."""
    sphaleron = spec.model in SPHALERON_MODELS
    matrix = raw_matrix(spec) if sphaleron else expression_matrix(spec)
    blocks = spectrum_of_matrix(matrix)
    eigenvalues = []
    closed_match: bool | None = None
    if not sphaleron:
        from .spectra import eigenvalues_numeric

        closed = closed_form_spectrum(spec)
        # labels attach through the closed-form pairing, which is always a
        # valid block structure (the sparsity components can be finer, e.g.
        # Moszkowski at V = 0)
        block_map = closed_form_blocks(spec)
        closed_match = _trace_det_ok(spec, matrix)
        for k in sorted(block_map):
            indices = block_map[k]
            sub = tuple(tuple(matrix[i][j] for j in indices) for i in indices)
            computed = sorted(eigenvalues_numeric(sub), key=lambda z: z.real)
            claimed = sorted(
                (e for e in closed if e.block == k), key=lambda e: e.value()
            )
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
        for bs in blocks:
            if bs.exact is not None:
                # mode eigenvalues lam solve (Delta + lam) f = 0
                for e in sorted(bs.exact, key=lambda e: -e.value()):
                    eigenvalues.append(
                        {
                            "exact": _negated_exact_text(e),
                            "float": -e.value(),
                            "block": bs.block[0],
                            "label": None,
                        }
                    )
            else:
                for z in sorted(bs.numeric, key=lambda z: (-z.real, -z.imag)):
                    eigenvalues.append(
                        {"exact": None, "float": -z.real, "block": bs.block[0], "label": None}
                    )
    payload = {
        "model": spec.model.value,
        "p": spec.p,
        "params": {k: str(v) for k, v in sorted(spec.params.items())},
        "basis": model_basis(spec.model).value,
        "blocks": [list(bs.block) for bs in blocks],
        "eigenvalues": eigenvalues,
    }
    if sphaleron:
        payload["convention"] = "lambda = -eig(Delta)"
        if SPHALERON_MODELS[spec.model] in (44, 50):
            payload["note"] = "raw operator reconstructed from the coupled mode system"
    else:
        payload["closed_form_match"] = closed_match
    return payload


def _negated_exact_text(e) -> str:
    from .spectra import ExactEig

    return ExactEig(-e.base, -e.sign, e.radicand).exact_text()


def _trace_det_ok(spec: ModelSpec, matrix) -> bool:
    """Per-block trace/det identities against the closed forms, exact."""
    closed = closed_form_spectrum(spec)
    block_map = closed_form_blocks(spec)
    by_block: dict[tuple[int, ...], list] = {}
    for e in closed:
        by_block.setdefault(block_map[e.block], []).append(e)
    for block, eigs in by_block.items():
        sub = [[matrix[i][j] for j in block] for i in block]
        if len(block) == 1:
            if len(eigs) != 1 or eigs[0].sign != 0:
                return False
            if sub[0][0] != eigs[0].base:
                return False
        else:
            plus, minus = eigs if eigs[0].sign >= eigs[1].sign else (eigs[1], eigs[0])
            tr = sub[0][0] + sub[1][1]
            det = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            # E+ + E- = 2 base, E+ E- = base^2 - radicand: rational identities
            if tr != ExtScalar.of(plus.base + minus.base, spec.p):
                return False
            if det != ExtScalar.of(plus.base * minus.base - plus.radicand, spec.p):
                return False
    return True


def cmd_spectrum(args: argparse.Namespace) -> int:
    payloads = []
    for p in args.p:
        spec = _model_from_args(args, p)
        payloads.append(spectrum_payload(spec))
    _emit_payloads(args, payloads)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    return cmd_spectrum(args)


def _emit_payloads(args: argparse.Namespace, payloads: list[dict]) -> None:
    if args.format == "json":
        obj = payloads[0] if len(payloads) == 1 else payloads
        _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if args.format == "csv":
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
        _emit(args, "\n".join(lines) + "\n")
        return
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
    _emit(args, "\n".join(out) + "\n")


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# check-realization -------------------------------------------------------------

def cmd_check_realization(args: argparse.Namespace) -> int:
    from .diffop import realization

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

    def add_common(sp: argparse.ArgumentParser, default_p: str = "1..6") -> None:
        sp.add_argument("--p", type=_parse_p_range, default=_parse_p_range(default_p),
                        help="p value or range A..B")
        sp.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        sp.add_argument("--out", help="output path (default stdout)")

    sp_verify = sub.add_parser("verify", help="run the exact identity suites")
    sp_verify.add_argument("--p", type=_parse_p_range, default=_parse_p_range("1..6"))
    sp_verify.set_defaults(func=cmd_verify)

    sp_rep = sub.add_parser("rep", help="export representation matrices as JSON")
    add_common(sp_rep, "3")
    sp_rep.add_argument("--basis", choices=sorted(_BASIS_NAMES), default="lambda_chi")
    sp_rep.add_argument("--generator", help="e.g. e00_0 or b+ (default: all eight)")
    sp_rep.set_defaults(func=cmd_rep)

    for name, func in (("spectrum", cmd_spectrum), ("sweep", cmd_sweep)):
        sp_s = sub.add_parser(name, help=f"{name} of a model Hamiltonian")
        add_common(sp_s, "2")
        sp_s.add_argument("--model", choices=("sphaleron", "moszkowski", "jc"), required=True)
        sp_s.add_argument("--case", type=int, choices=(43, 44, 50, 51))
        sp_s.add_argument("--c", type=_rational)
        sp_s.add_argument("--V", type=_rational)
        sp_s.add_argument("--omega", type=_rational)
        sp_s.add_argument("--omega0", type=_rational)
        sp_s.add_argument("--g", type=_rational)
        sp_s.add_argument("--k2", type=_rational)
        sp_s.set_defaults(func=func)

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
