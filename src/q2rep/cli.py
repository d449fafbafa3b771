"""Command-line interface: verification suites, matrix export, spectra, sweeps.

Usage: q2rep COMMAND [--OPTION VALUE ...], as the table COMMANDS lists and -h
prints.  A value follows its option after a space or "=" (--c -1/2, --c=-1/2),
and a unique prefix of an option's name stands for it (--gen for --generator).
A usage error prints one "error:" line naming the bad command, option or
value, and raises SystemExit(2).

Exit codes: 0 success, 1 identity failure or a spectrum that cannot be
certified real, 2 usage error (including `spectrum --model sphaleron`
without --case, an eigenvalue whose float is beyond the double range, and
an output that cannot be written: an --out path or a closed standard
output), 3 constraint violation.  All numeric inputs are exact rationals
("a/b" or integers); floats appear only in output.  Output is
deterministic: identical configs produce byte-identical files.
"""

from __future__ import annotations

import getopt
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from . import linalg, so4
from .algebra import (
    ALIASES,
    GENERATORS,
    GeneratorId,
    generator_by_name,
    graded_jacobi_sum,
    structure_terms,
)
from .diffop import realization, realization_basis, realization_basis_id, to_matrix
from .models import (
    Model,
    ModelSpec,
    ConstraintError,
    SPHALERON_MODELS,
    closed_form_blocks,
    closed_form_spectrum,
    expression_matrix,
    model_basis,
    sector_matrix,
)
from .rep import Basis, ext_matrices, graded_matrices, gram_matrix, rep_matrices
from .scalars import FloatRangeError, parse_rational
from .spectra import SolverError, decompose, spectrum_of_matrix


# Largest p any subcommand accepts: the top of the range that the spectrum
# certificate and the test suite cover.
MAX_P = 64


def _parse_p_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo_i, hi_i = int(lo), int(hi)
        else:
            lo_i = hi_i = int(text)
    except ValueError as exc:
        raise ValueError(f"bad p range {text!r}: use N or A..B") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise ValueError(f"bad p range {text!r}")
    if hi_i > MAX_P:
        raise ValueError(f"bad p range {text!r}: p is at most {MAX_P}")
    return list(range(lo_i, hi_i + 1))


# verify ----------------------------------------------------------------------
# Each suite yields (where, ok) for every exact check it makes; `where` names
# the check in the report when it is the suite's first failure.  The large
# suites format it only for a failing check and leave it None otherwise.

def _jacobi_checks():
    for triple in itertools.product(GENERATORS, repeat=3):
        ok = not graded_jacobi_sum(*triple)
        yield None if ok else f"triple {triple}", ok


def _homomorphism_checks(p, graded):
    """The 64 pair checks in each basis; `graded` maps each basis to its graded form.

    Each check compares [[M_x, M_y]] with the sum of c M_z over the structure
    terms of [[x, y]] row by row, as dicts of nonzeros, and builds no matrix.
    The products come from linalg.product_rows, the loop matmul is built on;
    every coefficient is +-1, so both sides are signed sums of rows
    (linalg.signed_sums_equal).

    The checks run over the integers, on the rows R_g of rep.graded_matrices,
    with s^pi_g S M_g S^-1 = R_g / D.  Every z in [[x, y]] has parity
    pi_x + pi_y mod 2, so [[R_x, R_y]] = D p^(pi_x pi_y) sum c R_z holds
    exactly when [[M_x, M_y]] = sum c M_z: D, s and S are invertible.  The
    right-hand rows are scaled by D, or by D p when x and y are both odd.
    """

    def check(rhs, gx, gy, xy, yx):
        # [[x, y]] is x y + y x when both are odd, x y - y x otherwise
        both_odd = gx.parity * gy.parity
        sign = 1 if both_odd else -1
        terms = [(c, rhs[both_odd][g]) for g, c in structure_terms(gx, gy)]
        return linalg.signed_sums_equal([(1, xy), (sign, yx)], terms)

    def scaled(rows, k):
        return {g: [{j: x * k for j, x in row.items()} for row in r] for g, r in rows.items()}

    for basis in Basis:
        scale, rows = graded[basis]
        rhs = (scaled(rows, scale), scaled(rows, scale * p))
        later = {}
        for gx, gy in itertools.product(GENERATORS, repeat=2):
            ok = later.pop((gx, gy), None)
            if ok is None:
                # each product serves two pairs: M_x M_y and M_y M_x make the
                # checks of (x, y) and of (y, x), both here; the products are
                # then dropped, and the result for (y, x) waits for its turn
                xy = linalg.product_rows(rows[gx], rows[gy])
                yx = xy if gx == gy else linalg.product_rows(rows[gy], rows[gx])
                ok = check(rhs, gx, gy, xy, yx)
                if gx != gy:
                    later[gy, gx] = check(rhs, gy, gx, yx, xy)
            yield None if ok else f"p={p} basis={basis.value} pair=({gx.name},{gy.name})", ok
        del rhs  # before the next basis scales its own


def _gram_checks(p, vw):
    g = gram_matrix(Basis.VW, p)
    for plus, minus in (("b+", "b-"), ("f+", "f-")):
        lhs = linalg.matmul(g, vw[generator_by_name(plus)])
        rhs = linalg.matmul(linalg.transpose(vw[generator_by_name(minus)]), g)
        yield f"p={p} pair={plus}/{minus}", linalg.equal(lhs, rhs)


def _orthogonality_checks(p):
    g = gram_matrix(Basis.LAMBDA_CHI, p)
    off = next(((i, j) for i, row in enumerate(g) for j in row.nz if i != j), None)
    yield f"p={p} entry {off}", off is None


def _identification_checks(p, so4_mats, lc):
    for line in so4.identification_lines(p, so4_mats, lc):
        yield f"p={p}: {line.label} at {line.first_difference}", line.passed


def _casimir_checks(p, so4_mats, casimirs):
    values = []
    for which in (1, 2):
        try:
            values.append(so4.casimir(which, p, so4_mats)[1])
        except ValueError as exc:
            yield f"p={p}: {exc}", False
        else:
            yield f"p={p}: C{which}", True  # casimir() returns only when it is scalar
    if len(values) == 2:
        casimirs[p] = tuple(values)
    # C1 - C2 = 2 K0^2 + {K+, K-} = 3/2, i.e. (3/2p) times e00_0+e11_0
    yield (f"p={p}: C1 - C2 is not the expected multiple of e00_0+e11_0",
           len(values) == 2 and values[0] - values[1] == Fraction(3, 2))


SUITES = (
    "graded-jacobi",
    "rep-homomorphism",
    "gram-adjointness",
    "lambda-chi-orthogonality",
    "so4-identification",
    "so4-casimir-scalar",
)


def _suite_results(
    p_values: list[int], casimirs: dict[int, tuple[Fraction, Fraction]]
) -> list[tuple[str, int, str | None]]:
    """Each entry: (suite name, number of exact checks, first failure or None).

    The suites that depend on p run p by p, so that each p's matrices are
    built once and read by every suite that needs them; each suite still
    makes its checks in p order.  The scalar Casimir values (C1, C2) of each
    p are stored in `casimirs`.
    """
    counts = dict.fromkeys(SUITES, 0)
    fails: dict[str, str | None] = dict.fromkeys(SUITES)

    def run(name, checks):
        for where, ok in checks:
            counts[name] += 1
            if fails[name] is None and not ok:
                fails[name] = where

    run("graded-jacobi", _jacobi_checks())
    for p in p_values:
        graded = {basis: graded_matrices(GENERATORS, basis, p) for basis in Basis}
        run("rep-homomorphism", _homomorphism_checks(p, graded))
        # the other suites read only these two views
        vw, lc = (ext_matrices(graded[b], b, p) for b in (Basis.VW, Basis.LAMBDA_CHI))
        del graded
        run("gram-adjointness", _gram_checks(p, vw))
        run("lambda-chi-orthogonality", _orthogonality_checks(p))
        so4_mats = so4.so4_matrices(p)
        run("so4-identification", _identification_checks(p, so4_mats, lc))
        run("so4-casimir-scalar", _casimir_checks(p, so4_mats, casimirs))
    return [(name, counts[name], fails[name]) for name in SUITES]


def cmd_verify(opts: dict) -> int:
    casimirs: dict[int, tuple[Fraction, Fraction]] = {}
    results = _suite_results(opts["p"], casimirs)
    for name, count, fail in results:
        status = "pass" if fail is None else f"FAIL ({fail})"
        print(f"{name:28s} {count:6d} checks  {status}")
    for p, (c1, c2) in casimirs.items():
        print(f"casimir values p={p}: C1={c1} C2={c2}")
    return 1 if any(fail is not None for _, _, fail in results) else 0


# rep -------------------------------------------------------------------------

def _json(obj) -> str:
    """Compact JSON with sorted keys, the form of every JSON output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _json_matrix(m: linalg.Matrix) -> str:
    """The dense rows as JSON, the bytes _json writes for the json_obj() of every entry.

    Each entry is one f-string of the two strings of its json_obj(), which
    hold only digits, "-" and "/" and so need no escaping; the row zero is
    encoded once per matrix.
    """
    if not m:
        return "[]"
    zero = _json(m[0].zero.json_obj())
    rows = []
    for row in m:
        out = [zero] * row.n
        for j, x in row.nz.items():
            o = x.json_obj()
            out[j] = f'{{"irr":"{o["irr"]}","rat":"{o["rat"]}"}}'
        rows.append("[" + ",".join(out) + "]")
    return "[" + ",".join(rows) + "]"


def _rep_pieces(basis: Basis, gens: list[GeneratorId], p_values: list[int]) -> Iterator[str]:
    """The export's JSON text in pieces, one matrix at a time.

    One matrix is a single object and several are a list; each object has
    its keys in sorted order, as _json writes them.
    """
    many = len(gens) * len(p_values) > 1
    sep = "[" if many else ""
    for p in p_values:
        mats = rep_matrices(gens, basis, p)
        for g in gens:
            yield sep
            yield (f'{{"basis":{_json(basis.value)},'
                   f'"entries":{_json_matrix(mats[g])},'
                   f'"generator":{_json(g.name)},"p":{_json(p)}}}')
            sep = ","
    yield "]\n" if many else "\n"


def cmd_rep(opts: dict) -> int:
    gens = [generator_by_name(opts["generator"])] if opts["generator"] else list(GENERATORS)
    return _emit(opts["out"], _rep_pieces(Basis(opts["basis"]), gens, opts["p"]))


# spectrum ---------------------------------------------------------------------

# the model options each --model takes
MODEL_OPTIONS = {
    "sphaleron": ("case", "k2"),
    "moszkowski": ("c", "V"),
    "jc": ("omega", "omega0", "g"),
}


def _model_spec(opts: dict, p: int) -> ModelSpec:
    model = opts["model"]
    # an unset option is 0, but an unset omega0 is derived from omega and g
    params = {name: opts[name] or 0 for name in MODEL_OPTIONS[model]
              if name != "case" and not (name == "omega0" and opts[name] is None)}
    name = f"sphaleron{opts['case']}" if model == "sphaleron" else model
    return ModelSpec(Model(name), p, params)


def spectrum_payload(spec: ModelSpec) -> dict:
    """Exact matrix, block decomposition and eigenvalues as a JSON-ready dict."""
    sphaleron = spec.model in SPHALERON_MODELS
    matrix = sector_matrix(spec) if sphaleron else expression_matrix(spec)
    eigenvalues = []
    closed_match: bool | None = None
    if not sphaleron:
        blocks = decompose(matrix).blocks
        closed = closed_form_spectrum(spec)
        closed_blocks = closed_form_blocks(spec)
        # a sparsity block must lie inside one closed-form block; it may be
        # finer (Moszkowski at V = 0), so labels attach through the closed forms
        home = {i: k for k, indices in closed_blocks.items() for i in indices}
        closed_match = all(len({home[i] for i in block}) == 1 for block in blocks)
        for k, indices in sorted(closed_blocks.items()):
            sub = tuple(tuple(matrix[i][j] for j in indices) for i in indices)
            claimed = sorted((e for e in closed if e.block == k), key=lambda e: e.value())
            # trace and determinant certify the closed forms exactly, so the
            # floats are their values and no numeric solve is needed
            if not _trace_det_ok(sub, claimed):
                closed_match = False
            eigenvalues += [
                {"exact": e.exact_text(), "float": e.value(), "block": indices[0], "label": e.label}
                for e in claimed
            ]
    else:
        solved = spectrum_of_matrix(matrix)
        blocks = [bs.block for bs in solved]
        # mode eigenvalues lam solve (Delta + lam) f = 0, so lam = -eig, ascending per block
        eigenvalues = [
            {"exact": None if e is None else (-e).exact_text(), "float": 0.0 - x,
             "block": bs.block[0], "label": None}
            for bs in solved for e, x in reversed(list(zip(bs.exact, bs.numeric)))
        ]
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


def cmd_spectrum(opts: dict) -> int:
    model = opts["model"]
    foreign = [f"--{name}" for names in MODEL_OPTIONS.values() for name in names
               if opts[name] is not None and name not in MODEL_OPTIONS[model]]
    if foreign:
        print(f"error: --model {model} does not take {' '.join(foreign)}", file=sys.stderr)
        return 2
    if model == "sphaleron" and opts["case"] is None:
        print("error: --model sphaleron needs --case {43,44,50,51}", file=sys.stderr)
        return 2
    payloads = [spectrum_payload(_model_spec(opts, p)) for p in opts["p"]]
    failed = [pl["p"] for pl in payloads if pl.get("closed_form_match") is False]
    if failed:
        print(f"error: closed forms do not match the Hamiltonian at p={failed}", file=sys.stderr)
    return _emit(opts["out"], [_format_payloads(opts["format"], payloads)]) or (1 if failed else 0)


def _format_payloads(fmt: str, payloads: list[dict]) -> str:
    if fmt == "json":
        obj = payloads[0] if len(payloads) == 1 else payloads
        return _json(obj) + "\n"
    if fmt == "csv":
        lines = ["model,p,params,block,label,exact,float"]
        for pl in payloads:
            params = ";".join(f"{k}={v}" for k, v in pl["params"].items())
            for e in pl["eigenvalues"]:
                exact = (e["exact"] or "").replace(",", ";")
                fields = [pl["model"], str(pl["p"]), params, str(e["block"]), e["label"] or ""]
                lines.append(",".join([*fields, exact, repr(e["float"])]))
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


def _emit(out: str | None, pieces: Iterable[str]) -> int:
    """Write the text's pieces to --out or stdout; exit code 2 when --out cannot be written.

    A generator's pieces are made as they are written, so a large export is
    never held whole.
    """
    if not out:
        sys.stdout.writelines(pieces)
        return 0
    try:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return 0


# check-realization -------------------------------------------------------------

def cmd_check_realization(opts: dict) -> int:
    which = int(opts["which"])
    failures, basis = 0, realization_basis_id(which)
    for p in opts["p"]:
        carriers = realization_basis(which, p)
        mats = rep_matrices(GENERATORS, basis, p)
        for g in GENERATORS:
            op = realization(which, g, p)
            if opts["show"]:
                print(f"p={p} {g.name}: {op.text()}")
            got, want = to_matrix(op, carriers), mats[g]
            if not linalg.equal(got, want):
                i, j = linalg.first_difference(got, want)
                print(
                    f"mismatch: realization {which} p={p} generator {g.name} "
                    f"entry ({i},{j}): {got[i][j]} vs {want[i][j]}"
                )
                failures += 1
    total = len(opts["p"]) * len(GENERATORS)
    print(f"check-realization {which}: {total - failures}/{total} matrices match")
    return 1 if failures else 0


# command line ------------------------------------------------------------------
# command -> (help line, handler, {option: (converter, default)}).  A converter
# reads an option's text and raises ValueError on a bad one; a tuple of texts
# accepts only those, and None makes the option a flag, True when given.  A
# default is the text read when the option is not given; None leaves it unset.

REQUIRED = object()  # the default of an option that must be given
COMMANDS = {
    "verify": ("run the exact identity suites", cmd_verify, {"p": (_parse_p_range, "1..6")}),
    "rep": ("export representation matrices as JSON", cmd_rep, {
        "p": (_parse_p_range, "3"),
        "out": (str, None),
        "basis": (tuple(sorted(b.value for b in Basis)), "lambda_chi"),
        "generator": ((*(g.name for g in GENERATORS), *ALIASES), None),
    }),
    "spectrum": ("spectrum of a model Hamiltonian", cmd_spectrum, {
        "p": (_parse_p_range, "2"),
        "out": (str, None),
        "format": (("json", "csv", "pretty"), "json"),
        "model": (tuple(MODEL_OPTIONS), REQUIRED),
        **{name: (("43", "44", "50", "51") if name == "case" else parse_rational, None)
           for names in MODEL_OPTIONS.values() for name in names},
    }),
    "check-realization": ("compare realizations to the abstract matrices", cmd_check_realization, {
        "which": (("1", "2", "3"), REQUIRED),
        "p": (_parse_p_range, "1..8"),
        "show": (None, None),
    }),
}
COMMANDS["sweep"] = ("alias of spectrum", *COMMANDS["spectrum"][1:])
_METAVARS = {_parse_p_range: "N|A..B", parse_rational: "a/b", str: "PATH"}


def _help(command: str | None) -> SystemExit:
    """Print the help made from COMMANDS, of all commands or of one; return the exit after it."""
    if command is None:
        print("usage: q2rep COMMAND [--OPTION VALUE ...]; q2rep COMMAND -h lists its options")
        for name, (help_line, _, _) in COMMANDS.items():
            print(f"  {name:17s}  {help_line}")
    else:
        print(f"usage: q2rep {command} [--OPTION VALUE ...]: {COMMANDS[command][0]}")
        for name, (convert, default) in COMMANDS[command][2].items():
            value = "{" + ",".join(convert) + "}" if isinstance(convert, tuple) else None
            words = [f"  --{name}", value or _METAVARS.get(convert)]
            if default is not None:
                words.append("(required)" if default is REQUIRED else f"(default: {default})")
            print(" ".join(filter(None, words)))
    print("A value follows its option after a space or '=' (--c -1/2, --c=-1/2),",
          "and a unique prefix of an option's name stands for it.", sep="\n")
    return SystemExit(0)


def _usage_error(prog: str, message: str) -> SystemExit:
    print(f"error: {message} (see {prog} -h)", file=sys.stderr)
    return SystemExit(2)


def _parse_argv(argv: list[str]) -> tuple[Callable[[dict], int], dict]:
    """The handler of the command that argv names, and {option: value} for all its options.

    Raises SystemExit(0) once -h has printed its help, and SystemExit(2) once
    a usage error has printed one line that names the bad command, option or value.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        raise _help(None)
    if command not in COMMANDS:
        raise _usage_error("q2rep", f"unknown command {command!r}" if argv else "no command given")
    prog, (_, handler, options) = f"q2rep {command}", COMMANDS[command]
    longopts = ["help", *(name if c is None else f"{name}=" for name, (c, _) in options.items())]
    try:
        pairs, extra = getopt.gnu_getopt(argv[1:], "h", longopts)
    except getopt.GetoptError as exc:
        raise _usage_error(prog, exc.msg)
    if extra:
        raise _usage_error(prog, f"unexpected argument {extra[0]!r}")
    if ("-h", "") in pairs or ("--help", "") in pairs:
        raise _help(command)
    texts = {name: default for name, (_, default) in options.items()}
    texts.update((opt[2:], text) for opt, text in pairs)  # the last of a repeated option wins
    values = {}
    for name, text in texts.items():
        convert = options[name][0]
        if text is REQUIRED:
            raise _usage_error(prog, f"--{name} is required")
        if isinstance(convert, tuple) and text not in (None, *convert):
            choices = ", ".join(convert)
            raise _usage_error(prog, f"--{name}: invalid choice: {text!r} (choose from {choices})")
        try:
            # an unset option stays None, a choice is its text and a given flag True
            values[name] = (text if text is None or isinstance(convert, tuple)
                            else True if convert is None else convert(text))
        except ValueError as exc:
            raise _usage_error(prog, f"--{name}: {exc}")
    return handler, values


def main(argv: list[str] | None = None) -> int:
    handler, opts = _parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        return handler(opts)
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: uncertified spectrum: {exc}", file=sys.stderr)
        return 1
    except FloatRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader closed stdout: send what is still buffered to devnull, so
        # that the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
